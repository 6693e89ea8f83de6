// serve-mixed: one tc::Engine under a closed loop of clients sending a seeded
// stream of mixed analytics with graph swaps, over cache-resident graphs.
#include <atomic>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "parallel/thread_pool.hpp"
#include "tc/engine.hpp"

namespace lotusbench {

namespace tc = lotus::tc;
namespace fs = std::filesystem;

namespace {

constexpr unsigned kClients = 2;
constexpr unsigned kDrivers = 2;
constexpr unsigned kThreadsPerQuery = 2;
/// Writes per graph in one cycle of the mix (see mix_cycle): 12 of the
/// cycle's 110 requests.
constexpr unsigned kWritesPerGraph = 4;
/// Cache budget per undirected edge of the serving graphs. When the
/// benchmark was defined, the oriented and LOTUS artifacts of the three
/// graphs took 9.9 bytes per edge, so 6 bytes per edge is about 0.6 of that
/// working set: evictions spill and some misses remap. The budget depends
/// on the graphs only, so a change that shrinks the artifacts fits more of
/// them, as it would under a fixed memory budget.
constexpr double kCacheBytesPerEdge = 6.0;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One read of the mix, with its count in one cycle of the mix: per graph,
/// or on the low-skew graph alone for kclique/ktruss (on the skewed graphs
/// they take seconds to minutes).
///
/// The mix is synthetic; no traffic trace sets it. The counts give each
/// read kind about the same share of the stream's busy time (the summed
/// latency of its reads), so that no one analytic decides qps: a kind that
/// gets twice as fast cuts the busy time by about a twelfth. They come from
/// per-request medians measured when the benchmark was defined (README.md),
/// and every run reports the shares it measured ("busy_share" notes).
struct ReadKind {
  const char* name;
  tc::Algorithm algorithm;
  tc::AnalyticKind analytic;
  unsigned weight;
  bool low_skew_only;
};
constexpr ReadKind kReads[] = {
    {"lotus", tc::Algorithm::kLotus, tc::AnalyticKind::kTriangles, 10, false},
    {"forward-bitmap", tc::Algorithm::kForwardBitmap, tc::AnalyticKind::kTriangles, 10, false},
    {"local-counts", tc::Algorithm::kForwardBitmap, tc::AnalyticKind::kLocalCounts, 1, false},
    {"clustering", tc::Algorithm::kForwardBitmap, tc::AnalyticKind::kClustering, 1, false},
    {"kclique", tc::Algorithm::kForwardBitmap, tc::AnalyticKind::kKClique, 30, true},
    {"ktruss", tc::Algorithm::kForwardBitmap, tc::AnalyticKind::kKTruss, 2, true},
};

/// One request of the stream: a read of kReads[read] or, when read < 0, a
/// write, on graph `graph`.
struct Request {
  int read;
  std::size_t graph;
};

/// One cycle of the mix: every (request, graph) pair as often as its
/// weight, evenly interleaved by smooth weighted round-robin so that any
/// prefix of the stream keeps the mix's proportions to within one request.
/// The seed only permutes the pairs, which decides ties.
std::vector<Request> mix_cycle(const std::vector<LoadedGraph>& graphs, std::uint64_t seed) {
  struct Slot {
    Request request;
    int weight;
    int current;
  };
  std::vector<Slot> slots;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    slots.push_back({{-1, g}, static_cast<int>(kWritesPerGraph), 0});
    for (int r = 0; r < static_cast<int>(std::size(kReads)); ++r)
      if (!kReads[r].low_skew_only || graphs[g].spec.family == Family::kHolmeKim)
        slots.push_back({{r, g}, static_cast<int>(kReads[r].weight), 0});
  }
  std::uint64_t rng = seed;
  for (std::size_t i = slots.size(); i > 1; --i)
    std::swap(slots[i - 1], slots[next_random(rng) % i]);
  int total = 0;
  for (const Slot& s : slots) total += s.weight;
  std::vector<Request> cycle;
  for (int i = 0; i < total; ++i) {
    Slot* best = nullptr;
    for (Slot& s : slots) {
      s.current += s.weight;
      if (best == nullptr || s.current > best->current) best = &s;
    }
    best->current -= total;
    cycle.push_back(best->request);
  }
  return cycle;
}

std::string key_of(const LoadedGraph& lg, unsigned version) {
  return lg.spec.name + "@v" + std::to_string(version);
}

/// Checks one served answer against the input's reference; empty = correct.
std::string verify(const ReadKind& kind, const tc::QueryResult& q, const Reference& ref) {
  if (!q.ok()) return std::string("status ") + q.status.message();
  const auto& a = q.result.analytics;
  auto mismatch = [](const char* what, std::uint64_t got, std::uint64_t want) {
    return std::string(what) + " " + std::to_string(got) + " != " + std::to_string(want);
  };
  switch (kind.analytic) {
    case tc::AnalyticKind::kTriangles:
      // RunResult::triangles, not analytics.count: the latter stays 0 for
      // kTriangles (README.md, "Known gaps").
      if (q.result.triangles != ref.triangles)
        return mismatch("triangles", q.result.triangles, ref.triangles);
      break;
    case tc::AnalyticKind::kLocalCounts:
      if (a.count != ref.triangles) return mismatch("local counts / 3", a.count, ref.triangles);
      break;
    case tc::AnalyticKind::kClustering:
      if (a.count != ref.triangles) return mismatch("clustering triangles", a.count, ref.triangles);
      if (a.clustering.wedges != ref.wedges)
        return mismatch("wedges", a.clustering.wedges, ref.wedges);
      break;
    case tc::AnalyticKind::kKClique:
      if (a.count != ref.cliques4) return mismatch("4-cliques", a.count, ref.cliques4);
      break;
    case tc::AnalyticKind::kKTruss:
      if (a.truss.max_k != ref.truss_max_k)
        return mismatch("truss max k", a.truss.max_k, ref.truss_max_k);
      if (a.truss.edges_in_max_truss != ref.truss_max_edges)
        return mismatch("truss max-k edges", a.truss.edges_in_max_truss, ref.truss_max_edges);
      break;
  }
  return {};
}

tc::QuerySpec spec_for(const ReadKind& kind, const LoadedGraph& lg, unsigned version) {
  tc::QuerySpec spec;
  spec.algorithm = kind.algorithm;
  spec.graph_key = key_of(lg, version);
  spec.graph = &lg.versions[version];
  spec.options.analytic.kind = kind.analytic;
  spec.options.analytic.k = kind.analytic == tc::AnalyticKind::kKClique ? 4 : 3;
  spec.options.analytic.granularity = tc::OutputGranularity::kSummary;
  return spec;
}

struct StreamResult {
  std::vector<double> latency;  // reads only; a failed read is +inf
  std::map<std::string, std::vector<double>> by_kind;  // "<graph> <read>" -> latencies
  std::map<std::string, double> busy;                    // read kind -> summed latency
  std::vector<double> queue;
  std::uint64_t attempted = 0, failed = 0, completed_edges = 0, writes = 0;
  std::string first_failure;
  double wall = 0.0;
};

/// Closed loop: each client takes the stream's next request when its
/// previous one returned. A write moves one graph to its next version and
/// invalidates the old version's artifacts. Once `seconds` have passed the
/// stream ends at the next cycle boundary, so every run serves whole cycles
/// of the mix and its latency samples always come in the same proportions.
StreamResult run_stream(tc::Engine& engine, const std::vector<LoadedGraph>& graphs,
                        std::vector<std::atomic<unsigned>>& current, double seconds,
                        std::uint64_t seed, Tracer* tracer) {
  const std::vector<Request> cycle = mix_cycle(graphs, seed);
  std::vector<StreamResult> per(kClients);
  std::mutex stream_mutex, swap_mutex, trace_mutex;
  std::size_t next = 0;
  bool ended = false;
  std::atomic<std::uint64_t> request{0};
  const double start = now_s();
  auto take = [&](Request& req) {
    std::lock_guard<std::mutex> lock(stream_mutex);
    if (!ended && next % cycle.size() == 0 && now_s() - start >= seconds) ended = true;
    if (ended) return false;
    req = cycle[next++ % cycle.size()];
    return true;
  };
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      StreamResult& out = per[c];
      Request req{};
      while (take(req)) {
        ++out.attempted;
        const std::size_t gi = req.graph;
        if (req.read < 0) {
          std::lock_guard<std::mutex> lock(swap_mutex);
          const unsigned old = current[gi].load();
          current[gi].store((old + 1) % static_cast<unsigned>(graphs[gi].versions.size()));
          engine.invalidate(key_of(graphs[gi], old));
          ++out.writes;
          continue;
        }
        const ReadKind* kind = &kReads[req.read];
        const unsigned version = current[gi].load();
        const LoadedGraph& lg = graphs[gi];
        const std::uint64_t id = ++request;
        const double t0 = now_s();
        auto q = engine.query(spec_for(*kind, lg, version));
        const double t1 = now_s();
        if (tracer != nullptr) {
          // Client-side request span; the queue wait is its first part.
          std::lock_guard<std::mutex> lock(trace_mutex);
          const int root = tracer->record(std::string("engine.") + kind->name, t0, t1, -1, id);
          if (q.ok()) tracer->record("engine.queue", t0, t0 + q.value().queue_s, root, id);
        }
        const std::string why = q.ok() ? verify(*kind, q.value(), lg.refs[version])
                                  : "rejected: " + q.status().message();
        if (!why.empty()) {
          ++out.failed;
          out.latency.push_back(kInf);
          if (out.first_failure.empty())
            out.first_failure = lg.spec.name + " " + kind->name + ": " + why;
          continue;
        }
        out.latency.push_back(t1 - t0);
        out.by_kind[lg.spec.name + " " + kind->name].push_back(t1 - t0);
        out.busy[kind->name] += t1 - t0;
        out.queue.push_back(q.value().queue_s);
        out.completed_edges += lg.refs[version].edges;
      }
    });
  }
  for (auto& t : clients) t.join();
  StreamResult all;
  all.wall = now_s() - start;
  for (auto& p : per) {
    all.latency.insert(all.latency.end(), p.latency.begin(), p.latency.end());
    all.queue.insert(all.queue.end(), p.queue.begin(), p.queue.end());
    for (auto& [k, v] : p.by_kind) all.by_kind[k].insert(all.by_kind[k].end(), v.begin(), v.end());
    for (auto& [k, t] : p.busy) all.busy[k] += t;
    all.attempted += p.attempted;
    all.failed += p.failed;
    all.completed_edges += p.completed_edges;
    all.writes += p.writes;
    if (all.first_failure.empty()) all.first_failure = p.first_failure;
  }
  return all;
}

void set_engine_metrics(const tc::EngineStats& before, const tc::EngineStats& after,
                        const std::vector<double>& queue, RunReport& report) {
  const auto lookups = after.cache_lookups - before.cache_lookups;
  report.set("engine.queue_p50_s", quantile(queue, 0.5), "s");
  report.set("engine.hit_ratio",
             lookups ? static_cast<double>(after.cache_hits - before.cache_hits) /
                           static_cast<double>(lookups)
                     : 0.0,
             "ratio");
  report.set("engine.prepare_s_total", after.preprocess_s_total - before.preprocess_s_total, "s");
  report.set("engine.count_s_total", after.count_s_total - before.count_s_total, "s");
  report.set("engine.spills", static_cast<double>(after.cache_spills - before.cache_spills),
             "count");
  report.set("engine.remaps", static_cast<double>(after.cache_remaps - before.cache_remaps),
             "count");
}

}  // namespace

void engine_sequence(const LoadedGraph& lg, std::uint64_t cache_budget,
                     const RunOptions& options, RunReport& report) {
  const std::string spill = options.scratch_dir + "/spill-engine";
  fs::remove_all(spill);
  fs::create_directories(spill);
  {
    tc::EngineOptions eo;
    eo.num_drivers = 1;
    eo.threads_per_query = lotus::parallel::num_threads();
    eo.cache_budget_bytes = cache_budget;
    eo.spill_dir = spill;
    tc::Engine engine(eo);
    // Two keys on one graph; the cache holds one LOTUS artifact:
    // a miss, a hit, a miss that spills a, a remap of a that spills b.
    std::vector<double> queue;
    const tc::EngineStats before = engine.stats();
    for (const char* key : {"a", "a", "b", "a"}) {
      tc::QuerySpec spec = spec_for(kReads[0], lg, 0);
      spec.graph_key = lg.spec.name + "@" + key;
      auto q = engine.query(spec);
      const std::string why = q.ok() ? verify(kReads[0], q.value(), lg.refs[0]) : "rejected";
      ++report.attempted;
      if (!why.empty()) {
        ++report.failed;
        report.fail(std::string("engine sequence: ") + why);
        continue;
      }
      queue.push_back(q.value().queue_s);
    }
    set_engine_metrics(before, engine.stats(), queue, report);
  }
  fs::remove_all(spill);
}

void run_serve(const WorkloadSpec& workload, const RunOptions& options, RunReport& report) {
  std::vector<LoadedGraph> graphs;
  std::unique_ptr<tc::Engine> engine;
  std::vector<double> setup, load;
  std::vector<std::atomic<unsigned>> current(workload.graphs.size());
  for (unsigned r = 0; r < kSetupReps; ++r) {
    engine.reset();  // the previous repetition's engine is torn down untimed
    const std::string spill = options.scratch_dir + "/spill-serve-" + std::to_string(r);
    fs::remove_all(spill);
    fs::create_directories(spill);
    const double t0 = now_s();
    const double t_load = load_inputs(workload, options, graphs, report);
    if (t_load < 0) return;
    std::uint64_t edges = 0;
    for (const auto& lg : graphs) edges += lg.refs[0].edges;
    tc::EngineOptions eo;
    eo.num_drivers = kDrivers;
    eo.threads_per_query = kThreadsPerQuery;
    eo.cache_budget_bytes =
        static_cast<std::uint64_t>(kCacheBytesPerEdge * static_cast<double>(edges));
    eo.spill_dir = spill;
    engine = std::make_unique<tc::Engine>(eo);
    // Warm-up: build every graph's two artifacts once.
    for (auto& c : current) c.store(0);
    for (const auto& lg : graphs)
      for (const ReadKind& kind : {kReads[0], kReads[1]}) {
        auto q = engine->query(spec_for(kind, lg, 0));
        const std::string why = q.ok() ? verify(kind, q.value(), lg.refs[0]) : "rejected";
        if (!why.empty()) {
          report.fail("warm-up " + lg.spec.name + " " + kind.name + ": " + why);
          return;
        }
      }
    setup.push_back(now_s() - t0);
    load.push_back(t_load);
  }
  report.set("setup_s", median(setup), "s");

  if (options.trace) {
    Tracer tracer;
    report.set("graph.load_s", median(load), "s");
    const tc::EngineStats before = engine->stats();
    StreamResult s = run_stream(*engine, graphs, current, options.seconds / 2,
                                options.seed, &tracer);
    const tc::EngineStats after = engine->stats();
    engine.reset();
    report.attempted += s.attempted;
    report.failed += s.failed;
    if (!s.first_failure.empty()) report.fail(s.first_failure);
    set_engine_metrics(before, after, s.queue, report);
    std::vector<LoadedGraph> base(graphs.size());
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      base[i].spec = graphs[i].spec;
      base[i].versions.push_back(std::move(graphs[i].versions[0]));
      base[i].refs.push_back(graphs[i].refs[0]);
    }
    trace_layers(workload, base, options, tracer, report);
    if (!tracer.write(options.trace_path)) report.fail("cannot write " + options.trace_path);
    return;
  }

  StreamResult s = run_stream(*engine, graphs, current, options.seconds, options.seed, nullptr);
  engine.reset();
  report.attempted = s.attempted;
  report.failed = s.failed;
  if (!s.first_failure.empty()) report.fail(s.first_failure);
  const double completed = static_cast<double>(s.latency.size() - s.failed);
  report.set("query_p50_s", quantile(s.latency, 0.5), "s");
  report.set("query_p90_s", quantile(s.latency, 0.9), "s");
  report.set("edges_per_s", static_cast<double>(s.completed_edges) / s.wall, "edges/s");
  report.set("qps", completed / s.wall, "1/s");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report.notes["samples"] = std::to_string(s.latency.size());
  report.notes["writes"] = std::to_string(s.writes);
  for (const auto& [k, v] : s.by_kind)
    report.notes["p50_s " + k] = std::to_string(median(v)) + " (" + std::to_string(v.size()) + ")";
  double busy = 0.0;
  for (const auto& [k, t] : s.busy) busy += t;
  for (const auto& [k, t] : s.busy) report.notes["busy_share " + k] = std::to_string(t / busy);
}

}  // namespace lotusbench
