// Seeded inputs, their reference answers, the span recorder and small
// process helpers.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "baselines/tc_baselines.hpp"
#include "common.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "tc/api.hpp"

namespace lotusbench {

namespace g = lotus::graph;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads

namespace {

const GraphSpec kTwtr{"twtr", Family::kRmatSocial, 16.0};
const GraphSpec kSk{"sk", Family::kCopyWeb, 16.0};

std::vector<WorkloadSpec> make_workloads(bool tiny) {
  // Factor 16 puts the LOTUS topology above a 105 MB LLC (README.md);
  // factor 0.5 keeps the serving graphs cache-resident.
  const double cold = tiny ? 0.02 : 16.0;
  const double warm = tiny ? 0.02 : 0.5;
  const GraphSpec hk_warm{"frndstr", Family::kHolmeKim, warm};
  std::vector<WorkloadSpec> w;
  w.push_back({"cold-social", {{kTwtr.name, kTwtr.family, cold}}, 1, false, hk_warm});
  w.push_back({"cold-web", {{kSk.name, kSk.family, cold}}, 1, false, hk_warm});
  w.push_back({"serve-mixed",
               {{"twtr", Family::kRmatSocial, warm},
                {"sk", Family::kCopyWeb, warm},
                hk_warm},
               3,
               true,
               hk_warm});
  return w;
}

/// One input graph, deterministic in (spec, seed, version).
g::CsrGraph generate(const GraphSpec& spec, std::uint64_t seed, unsigned version) {
  auto mix = [](std::uint64_t x) { return next_random(x); };
  std::uint64_t s = mix(seed);
  for (char c : spec.name) s = mix(s ^ static_cast<unsigned char>(c));
  s = mix(s ^ (0x5eedULL + version));
  const double f = spec.factor;
  switch (spec.family) {
    case Family::kRmatSocial: {
      const double target = std::max(1024.0, 128e3 * f);
      const auto scale = static_cast<unsigned>(std::lround(std::log2(target)));
      return g::build_undirected(g::rmat({.scale = scale, .edge_factor = 12, .seed = s}));
    }
    case Family::kCopyWeb: {
      const auto n = static_cast<g::VertexId>(std::max(1024.0, 192e3 * f));
      return g::build_undirected(g::copy_web({.num_vertices = n,
                                              .edges_per_vertex = 12,
                                              .p_copy = 0.78,
                                              .locality_window = 4096,
                                              .core_size = std::min<g::VertexId>(2048, n / 32),
                                              .p_core = 0.30,
                                              .p_local = 0.55,
                                              .seed = s}));
    }
    case Family::kHolmeKim: {
      const auto n = static_cast<g::VertexId>(std::max(1024.0, 256e3 * f));
      return g::build_undirected(g::holme_kim({.num_vertices = n,
                                               .edges_per_vertex = 7,
                                               .p_triad = 0.35,
                                               .seed_boost = 0,
                                               .p_local = 0.30,
                                               .seed = s}));
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Independent reference algorithms

/// Out-lists of the (degree, id)-ascending orientation, in rank space.
std::vector<std::vector<std::uint32_t>> rank_oriented(const g::CsrGraph& graph) {
  const g::VertexId n = graph.num_vertices();
  std::vector<g::VertexId> order(n);
  for (g::VertexId v = 0; v < n; ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](g::VertexId a, g::VertexId b) {
    return graph.degree(a) != graph.degree(b) ? graph.degree(a) < graph.degree(b) : a < b;
  });
  std::vector<std::uint32_t> rank(n);
  for (g::VertexId i = 0; i < n; ++i) rank[order[i]] = i;
  std::vector<std::vector<std::uint32_t>> out(n);
  for (g::VertexId v = 0; v < n; ++v) {
    for (g::VertexId u : graph.neighbors(v))
      if (rank[u] > rank[v]) out[rank[v]].push_back(rank[u]);
    std::sort(out[rank[v]].begin(), out[rank[v]].end());
  }
  return out;
}

template <typename A, typename B>
std::vector<std::uint32_t> intersect(const A& a, const B& b) {
  std::vector<std::uint32_t> c;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(c));
  return c;
}

std::uint64_t count_4cliques(const g::CsrGraph& graph) {
  const auto out = rank_oriented(graph);
  std::uint64_t total = 0;
  for (const auto& ov : out)
    for (std::uint32_t u : ov) {
      const auto common = intersect(ov, out[u]);
      for (std::uint32_t w : common) total += intersect(common, out[w]).size();
    }
  return total;
}

void truss_summary(const g::CsrGraph& graph, std::uint32_t& max_k,
                   std::uint64_t& edges_in_max) {
  // Edge ids over the u < v half; support by merge; bucket peeling.
  const g::VertexId n = graph.num_vertices();
  std::vector<std::uint64_t> first(static_cast<std::size_t>(n) + 1, 0);
  for (g::VertexId v = 0; v < n; ++v) {
    std::uint64_t up = 0;
    for (g::VertexId u : graph.neighbors(v)) up += u > v ? 1 : 0;
    first[v + 1] = first[v] + up;
  }
  const std::uint64_t m = first[n];
  std::vector<g::VertexId> eu(m), ev(m);
  for (g::VertexId v = 0; v < n; ++v) {
    std::uint64_t e = first[v];
    for (g::VertexId u : graph.neighbors(v))
      if (u > v) { eu[e] = v; ev[e] = u; ++e; }
  }
  auto edge_id = [&](g::VertexId a, g::VertexId b) {
    if (a > b) std::swap(a, b);
    auto nb = graph.neighbors(a);
    auto it = std::upper_bound(nb.begin(), nb.end(), a);  // first u > a
    const auto pos = std::lower_bound(it, nb.end(), b) - it;
    return first[a] + static_cast<std::uint64_t>(pos);
  };
  std::vector<std::uint32_t> support(m);
  for (std::uint64_t e = 0; e < m; ++e)
    support[e] = static_cast<std::uint32_t>(
        intersect(graph.neighbors(eu[e]), graph.neighbors(ev[e])).size());

  // Bin sort by support (Batagelj-Zaversnik style) and peel.
  std::uint32_t max_s = 0;
  for (auto s : support) max_s = std::max(max_s, s);
  std::vector<std::uint64_t> bin(max_s + 2, 0);
  for (auto s : support) ++bin[s + 1];
  for (std::size_t i = 1; i < bin.size(); ++i) bin[i] += bin[i - 1];
  std::vector<std::uint64_t> sorted(m), pos(m);
  {
    std::vector<std::uint64_t> next(bin.begin(), bin.end() - 1);
    for (std::uint64_t e = 0; e < m; ++e) {
      pos[e] = next[support[e]]++;
      sorted[pos[e]] = e;
    }
  }
  std::vector<char> removed(m, 0);
  std::vector<std::uint32_t> truss(m, 0);
  auto decrement = [&](std::uint64_t e, std::uint32_t floor) {
    if (support[e] <= floor) return;
    const std::uint32_t s = support[e];
    const std::uint64_t head = bin[s];
    const std::uint64_t other = sorted[head];
    std::swap(sorted[pos[e]], sorted[head]);
    pos[other] = pos[e];
    pos[e] = head;
    ++bin[s];
    --support[e];
  };
  for (std::uint64_t i = 0; i < m; ++i) {
    const std::uint64_t e = sorted[i];
    const std::uint32_t s = support[e];
    truss[e] = s + 2;
    const g::VertexId a = eu[e], b = ev[e];
    for (std::uint32_t w : intersect(graph.neighbors(a), graph.neighbors(b))) {
      const std::uint64_t e1 = edge_id(a, w), e2 = edge_id(b, w);
      if (removed[e1] || removed[e2]) continue;
      decrement(e1, s);
      decrement(e2, s);
    }
    removed[e] = 1;
  }
  max_k = 0;
  edges_in_max = 0;
  for (auto t : truss) max_k = std::max(max_k, t);
  for (auto t : truss) edges_in_max += t == max_k ? 1 : 0;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name, bool tiny) {
  static const std::vector<WorkloadSpec> full = make_workloads(false);
  static const std::vector<WorkloadSpec> small = make_workloads(true);
  for (const auto& w : tiny ? small : full)
    if (w.name == name) return &w;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Input files

std::string input_path(const std::string& dir, const GraphSpec& spec, unsigned version) {
  char factor[32];
  std::snprintf(factor, sizeof factor, "%g", spec.factor);
  return dir + "/" + spec.name + "-f" + factor + "-v" + std::to_string(version) + ".gr";
}

bool read_reference(const std::string& graph_path, Reference& out) {
  std::ifstream in(graph_path + ".ref");
  if (!in) return false;
  std::string key;
  std::uint64_t value = 0;
  int fields = 0;
  while (in >> key >> value) {
    ++fields;
    if (key == "vertices") out.vertices = value;
    else if (key == "edges") out.edges = value;
    else if (key == "triangles") out.triangles = value;
    else if (key == "wedges") out.wedges = value;
    else if (key == "cliques4") out.cliques4 = value;
    else if (key == "truss_max_k") out.truss_max_k = static_cast<std::uint32_t>(value);
    else if (key == "truss_max_edges") out.truss_max_edges = value;
    else if (key == "digest") out.digest = value;
    else --fields;
  }
  return fields == 8;
}

namespace {

bool write_reference(const std::string& graph_path, const Reference& r) {
  const std::string tmp = graph_path + ".ref.tmp";
  {
    std::ofstream out(tmp);
    out << "vertices " << r.vertices << "\nedges " << r.edges << "\ntriangles "
        << r.triangles << "\nwedges " << r.wedges << "\ncliques4 " << r.cliques4
        << "\ntruss_max_k " << r.truss_max_k << "\ntruss_max_edges "
        << r.truss_max_edges << "\ndigest " << r.digest << "\n";
    if (!out) return false;
  }
  std::error_code ec;
  fs::rename(tmp, graph_path + ".ref", ec);
  return !ec;
}

/// FNV-1a over the vertex count and the neighbor array.
std::uint64_t digest(const g::CsrGraph& graph) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ graph.num_vertices();
  const auto& nbrs = graph.neighbor_array();
  for (std::size_t i = 0; i < nbrs.size(); ++i) h = (h ^ nbrs.data()[i]) * 0x100000001b3ULL;
  return h;
}

Reference compute_reference(const g::CsrGraph& graph, const GraphSpec& spec) {
  Reference r;
  r.digest = digest(graph);
  r.vertices = graph.num_vertices();
  r.edges = graph.num_edges() / 2;
  r.triangles = lotus::baselines::forward_merge(graph).triangles;
  r.wedges = count_wedges(graph);
  if (spec.family == Family::kHolmeKim) {
    r.cliques4 = count_4cliques(graph);
    truss_summary(graph, r.truss_max_k, r.truss_max_edges);
  }
  return r;
}

/// Tiny instance of every generator: the reference paths and the library
/// paths the benchmark measures must agree with brute force.
bool self_check(std::uint64_t seed) {
  namespace tc = lotus::tc;
  const GraphSpec specs[] = {{"check-rmat", Family::kRmatSocial, 0.01},
                             {"check-web", Family::kCopyWeb, 0.01},
                             {"check-hk", Family::kHolmeKim, 0.01}};
  bool ok = true;
  for (const GraphSpec& spec : specs) {
    const g::CsrGraph graph = generate(spec, seed, 0);
    const std::uint64_t brute = lotus::baselines::brute_force(graph);
    const Reference ref = compute_reference(graph, spec);
    auto expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
      if (got == want) return;
      std::cerr << "lotusbench: self-check " << spec.name << " " << what << ": got "
                << got << ", want " << want << "\n";
      ok = false;
    };
    // A served result, or nothing when the query failed.
    auto run = [&](tc::Algorithm algorithm, tc::AnalyticKind kind) {
      tc::QueryOptions opt;
      opt.analytic.kind = kind;
      opt.analytic.k = kind == tc::AnalyticKind::kKClique ? 4 : 3;
      opt.analytic.granularity = tc::OutputGranularity::kSummary;
      auto q = tc::query(algorithm, graph, opt);
      return served(q) ? std::optional<tc::RunResult>(served(q)->result) : std::nullopt;
    };
    constexpr std::uint64_t kFailed = ~0ULL;
    expect("forward-merge vs brute force", ref.triangles, brute);
    for (auto algorithm : {tc::Algorithm::kLotus, tc::Algorithm::kForwardBitmap}) {
      const auto r = run(algorithm, tc::AnalyticKind::kTriangles);
      expect("query triangles", r ? r->triangles : kFailed, brute);
    }
    const auto local = run(tc::Algorithm::kForwardBitmap, tc::AnalyticKind::kLocalCounts);
    expect("local counts / 3", local ? local->analytics.count : kFailed, brute);
    const auto clus = run(tc::Algorithm::kForwardBitmap, tc::AnalyticKind::kClustering);
    expect("clustering triangles", clus ? clus->analytics.count : kFailed, brute);
    expect("clustering wedges", clus ? clus->analytics.clustering.wedges : kFailed, ref.wedges);
    const auto kc = run(tc::Algorithm::kForwardBitmap, tc::AnalyticKind::kKClique);
    expect("4-cliques", kc ? kc->analytics.count : kFailed, count_4cliques(graph));
    const auto kt = run(tc::Algorithm::kForwardBitmap, tc::AnalyticKind::kKTruss);
    std::uint32_t max_k = 0;
    std::uint64_t max_edges = 0;
    truss_summary(graph, max_k, max_edges);
    expect("truss max k", kt ? kt->analytics.truss.max_k : kFailed, max_k);
    expect("truss max edges", kt ? kt->analytics.truss.edges_in_max_truss : kFailed, max_edges);
  }
  return ok;
}

}  // namespace

int generate_inputs(const WorkloadSpec& workload, std::uint64_t seed, const std::string& dir,
                    bool traced) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::cerr << "lotusbench: cannot create " << dir << ": " << ec.message() << "\n";
    return 1;
  }
  // A graph file may have been evicted while its reference was kept: then
  // the regenerated graph only needs its digest checked, not the reference
  // recomputed.
  auto make = [&](const GraphSpec& spec, unsigned version) {
    const std::string path = input_path(dir, spec, version);
    Reference kept;
    const bool have_ref = read_reference(path, kept);
    if (have_ref && fs::exists(path)) return true;
    const g::CsrGraph graph = generate(spec, seed, version);
    const auto st = g::write_csr_binary_s(path, graph);
    if (!st.ok()) {
      std::cerr << "lotusbench: writing " << path << ": " << st.message() << "\n";
      return false;
    }
    if (have_ref && kept.digest == digest(graph)) return true;
    return write_reference(path, compute_reference(graph, spec));
  };
  for (const GraphSpec& spec : workload.graphs)
    for (unsigned v = 0; v < workload.versions; ++v)
      if (!make(spec, v)) return 1;
  if (traced && !make(workload.mining_graph, 0)) return 1;
  return self_check(seed) ? 0 : 3;
}

double load_inputs(const WorkloadSpec& workload, const RunOptions& options,
                   std::vector<LoadedGraph>& out, RunReport& report) {
  out.clear();
  double load_s = 0.0;
  for (const GraphSpec& spec : workload.graphs) {
    LoadedGraph lg;
    lg.spec = spec;
    for (unsigned v = 0; v < workload.versions; ++v) {
      const std::string path = input_path(options.input_dir, spec, v);
      Reference ref;
      if (!read_reference(path, ref)) {
        report.fail("missing reference for " + path);
        return -1.0;
      }
      const double t0 = now_s();
      auto graph = g::read_csr_binary_s(path);
      load_s += now_s() - t0;
      if (!graph.ok()) {
        report.fail("loading " + path + ": " + graph.status().message());
        return -1.0;
      }
      const g::CsrGraph& got = graph.value();
      if (got.num_vertices() != ref.vertices || got.num_edges() / 2 != ref.edges) {
        report.fail("input " + path + " disagrees with its reference");
        return -1.0;
      }
      lg.versions.push_back(std::move(graph.value()));
      lg.refs.push_back(ref);
    }
    out.push_back(std::move(lg));
  }
  return load_s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Tracer

double Tracer::self_time(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<double, double>> kids;
  for (const Span& c : spans_)
    if (c.parent == id) kids.emplace_back(std::max(c.start, s.start), std::min(c.end, s.end));
  std::sort(kids.begin(), kids.end());
  double covered = 0.0, reach = s.start;
  for (auto [b, e] : kids) {
    b = std::max(b, reach);
    if (e > b) {
      covered += e - b;
      reach = e;
    }
  }
  return (s.end - s.start) - covered;
}

double Tracer::median_self(const std::string& name) const {
  std::map<std::uint64_t, double> per_request;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) per_request[spans_[i].request] += self_time(static_cast<int>(i));
  std::vector<double> v;
  for (auto& [req, t] : per_request) v.push_back(t);
  return median(v);
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\": [";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                  "\"parent\": %d, \"request\": %llu}",
                  i ? "," : "", i, s.name.c_str(), s.start, s.end, s.parent,
                  static_cast<unsigned long long>(s.request));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace lotusbench
