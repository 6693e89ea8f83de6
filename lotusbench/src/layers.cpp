// The traced run: each layer timed from outside, by a span around the
// benchmark's own call into the module's public function.
//
// The LOTUS query is decomposed into the calls tc::query(kLotus) makes
// (LotusGraph::build, count_hhh_hhn, count_hnn, count_nnn), interleaved with
// untraced tc::query calls so that trace.coverage compares like with like.
// The other layers (orientation, forward kernel, prepared artifacts, spill,
// mining, engine, one-thread count) are timed by repeated direct calls.
#include <filesystem>
#include <optional>

#include "baselines/tc_baselines.hpp"
#include "common.hpp"
#include "graph/degree_order.hpp"
#include "graph/io.hpp"
#include "lotus/count.hpp"
#include "lotus/lotus_graph.hpp"
#include "lotus/relabel.hpp"
#include "parallel/thread_pool.hpp"
#include "tc/prepared.hpp"

namespace lotusbench {

namespace g = lotus::graph;
namespace tc = lotus::tc;
namespace core = lotus::core;
namespace fs = std::filesystem;

namespace {

constexpr unsigned kReps = 3;  // calls per layer; the median is reported

/// Sums over the workload's graphs of each layer's median.
struct Sums {
  // Untraced query time, and its time-weighted share covered by the layer
  // spans (coverage) and by the traced root span (overhead).
  double untraced = 0, covered = 0, overhead = 0, self = 0;
  double relabel = 0, build = 0;
  double phase[3] = {0, 0, 0};
  double serial_count = 0, orient = 0, forward = 0;
  double prepare_oriented = 0, prepare_lotus = 0, save = 0, remap = 0;
  double local_counts = 0, clustering = 0;
  std::uint64_t hubs = 0, he = 0, nhe = 0, topology = 0, wedges = 0, forward_triangles = 0;
  std::uint64_t triangles[3] = {0, 0, 0};  // hhh+hhn, hnn, nnn
};

class Layers {
 public:
  Layers(const RunOptions& options, Tracer& tracer, RunReport& report)
      : options_(options), tracer_(tracer), report_(report) {}

  void check(const std::string& what, std::uint64_t got, std::uint64_t want) {
    ++report_.attempted;
    if (got == want) return;
    ++report_.failed;
    report_.fail(what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
  }

  /// Median wall time of `kReps` calls of `fn`, each inside a span `name`.
  template <typename Fn>
  double timed(const std::string& name, Fn&& fn) {
    std::vector<double> t;
    for (unsigned r = 0; r < kReps; ++r) {
      Scoped span(&tracer_, name, -1, ++request_);
      fn();
      t.push_back(span.stop());
    }
    return median(t);
  }

  /// Untraced tc::query(kLotus) interleaved with its decomposition, for at
  /// least kReps rounds and `budget_s` seconds.
  void lotus(const LoadedGraph& lg, double budget_s, Sums& sum) {
    const g::CsrGraph& graph = lg.versions[0];
    const Reference& ref = lg.refs[0];
    const std::string tag = lg.spec.name + ".";
    // Per round: untraced time, summed layer spans, root span. Ratios are
    // taken within a round, so drift between rounds cancels.
    std::vector<double> plain, coverage, overhead, self;
    tc::query(tc::Algorithm::kLotus, graph);  // warm-up
    const double start = now_s();
    for (unsigned r = 0; r < kReps || now_s() - start < budget_s; ++r) {
      const double t0 = now_s();
      auto q = tc::query(tc::Algorithm::kLotus, graph);
      plain.push_back(now_s() - t0);
      check("lotus query", served(q) ? served(q)->result.triangles : ~0ULL, ref.triangles);

      const std::uint64_t id = ++request_;
      Scoped root(&tracer_, tag + "tc.query", -1, id);
      Scoped b(&tracer_, tag + "lotus.build", root.id(), id);
      std::optional<core::LotusGraph> built(core::LotusGraph::build(graph, config_));
      double spans = b.stop();
      Scoped s1(&tracer_, tag + "lotus.hhh_hhn", root.id(), id);
      const core::HubPhaseCounts hub = core::count_hhh_hhn(*built, config_);
      spans += s1.stop();
      Scoped s2(&tracer_, tag + "lotus.hnn", root.id(), id);
      const std::uint64_t hnn =
          core::count_hnn(*built, lotus::baselines::null_probe, config_.vectorize);
      spans += s2.stop();
      Scoped s3(&tracer_, tag + "lotus.nnn", root.id(), id);
      const std::uint64_t nnn = core::count_nnn(*built, lotus::baselines::null_probe,
                                                config_.vectorize, config_.hybrid_degree_threshold);
      spans += s3.stop();
      check("lotus phases", hub.hhh + hub.hhn + hnn + nnn, ref.triangles);
      if (r == 0) {
        sum.hubs += built->hub_count();
        sum.he += built->he().num_edges();
        sum.nhe += built->nhe().num_edges();
        sum.topology += built->topology_bytes();
        sum.triangles[0] += hub.hhh + hub.hhn;
        sum.triangles[1] += hnn;
        sum.triangles[2] += nnn;
      }
      // `built` is released inside the root span, as it is inside tc::query.
      built.reset();
      const double whole = root.stop();
      coverage.push_back(spans / plain.back());
      overhead.push_back((whole - plain.back()) / plain.back());
      self.push_back(plain.back() - spans);
    }
    const double p50 = median(plain);
    sum.untraced += p50;
    sum.covered += p50 * median(coverage);
    sum.overhead += p50 * median(overhead);
    sum.self += median(self);
    sum.build += tracer_.median_self(tag + "lotus.build");
    sum.phase[0] += tracer_.median_self(tag + "lotus.hhh_hhn");
    sum.phase[1] += tracer_.median_self(tag + "lotus.hnn");
    sum.phase[2] += tracer_.median_self(tag + "lotus.nnn");

    const auto n = graph.num_vertices();
    const auto reorder = static_cast<g::VertexId>(std::max<std::uint64_t>(
        config_.resolve_hub_count(n), static_cast<std::uint64_t>(config_.relabel_fraction * n)));
    sum.relabel += timed(tag + "lotus.relabel", [&] {
      (void)core::create_relabeling_array(graph, reorder);
    });

    // The count phases on one thread: the baseline of the thread scaling.
    const core::LotusGraph built = core::LotusGraph::build(graph, config_);
    lotus::parallel::set_num_threads(1);
    Scoped serial(&tracer_, tag + "lotus.count_one_thread", -1, ++request_);
    const auto hub = core::count_hhh_hhn(built, config_);
    const auto hnn = core::count_hnn(built, lotus::baselines::null_probe, config_.vectorize);
    const auto nnn = core::count_nnn(built, lotus::baselines::null_probe, config_.vectorize,
                                     config_.hybrid_degree_threshold);
    sum.serial_count += serial.stop();
    lotus::parallel::set_num_threads(kQueryThreads);
    check("lotus phases, one thread", hub.hhh + hub.hhn + hnn + nnn, ref.triangles);
  }

  void forward(const LoadedGraph& lg, Sums& sum) {
    const g::CsrGraph& graph = lg.versions[0];
    const std::string tag = lg.spec.name + ".";
    g::OrientedCsr oriented;
    sum.orient += timed(tag + "graph.orient",
                        [&] { oriented = g::degree_ordered_oriented(graph); });
    std::uint64_t got = 0;
    sum.forward += timed(tag + "forward.count", [&] {
      got = lotus::baselines::forward_bitmap_prepared(oriented);
    });
    check("forward-bitmap", got, lg.refs[0].triangles);
    sum.forward_triangles += got;
    sum.wedges += count_wedges(oriented);
  }

  /// Build the prepared artifacts; spill and remap the ones `kinds` names.
  /// Returns the LOTUS artifact's footprint.
  std::uint64_t artifacts(const LoadedGraph& lg, const std::vector<tc::ArtifactKind>& kinds,
                          Sums& sum) {
    const g::CsrGraph& graph = lg.versions[0];
    const std::string tag = lg.spec.name + ".";
    std::optional<tc::PreparedGraph> art[2];
    sum.prepare_oriented += timed(tag + "tc.prepare_oriented", [&] {
      art[0] = tc::PreparedGraph::build(tc::ArtifactKind::kOriented, graph);
    });
    sum.prepare_lotus += timed(tag + "tc.prepare_lotus", [&] {
      art[1] = tc::PreparedGraph::build(tc::ArtifactKind::kLotus, graph);
    });
    const std::string dir = options_.scratch_dir + "/spill-layers";
    fs::create_directories(dir);
    for (const auto& a : art) {
      if (std::find(kinds.begin(), kinds.end(), a->kind()) == kinds.end()) continue;
      const std::string path =
          dir + "/" + lg.spec.name + "-" + tc::artifact_kind_name(a->kind()) + ".lpa";
      sum.save += timed(tag + "spill.save", [&] {
        if (!a->save_s(path).ok()) report_.fail("spill save failed: " + path);
      });
      const auto algo = a->kind() == tc::ArtifactKind::kLotus ? tc::Algorithm::kLotus
                                                               : tc::Algorithm::kForwardBitmap;
      sum.remap += timed(tag + "spill.remap", [&] {
        auto mapped = tc::PreparedGraph::load_mapped_s(path);
        if (!mapped.ok()) {
          report_.fail("spill remap failed: " + path);
          return;
        }
        auto q = tc::query_prepared(algo, graph, mapped.value());
        check("remapped artifact", served(q) ? served(q)->result.triangles : ~0ULL,
              lg.refs[0].triangles);
      });
    }
    fs::remove_all(dir);
    return art[1]->bytes();
  }

  /// Per-vertex analytics on each graph; k-clique and k-truss on the
  /// low-skew one only.
  void mining(const std::vector<const LoadedGraph*>& graphs, Sums& sum) {
    for (const LoadedGraph* lg : graphs) {
      const g::CsrGraph& graph = lg->versions[0];
      const Reference& ref = lg->refs[0];
      const std::string tag = lg->spec.name + ".";
      const auto art = tc::PreparedGraph::build(tc::ArtifactKind::kOriented, graph);
      auto run = [&](tc::AnalyticKind kind) {
        tc::QueryOptions opt;
        opt.analytic.granularity = tc::OutputGranularity::kSummary;
        opt.analytic.kind = kind;
        opt.analytic.k = kind == tc::AnalyticKind::kKClique ? 4 : 3;
        auto q = tc::query_prepared(tc::Algorithm::kForwardBitmap, graph, art, opt);
        return served(q) ? std::optional<tc::QueryResult>(*served(q)) : std::nullopt;
      };
      sum.local_counts += timed(tag + "mining.local_counts", [&] {
        auto q = run(tc::AnalyticKind::kLocalCounts);
        check("local counts / 3", q ? q->result.analytics.count : ~0ULL, ref.triangles);
      });
      sum.clustering += timed(tag + "mining.clustering", [&] {
        auto q = run(tc::AnalyticKind::kClustering);
        check("clustering triangles", q ? q->result.analytics.count : ~0ULL, ref.triangles);
        check("clustering wedges", q ? q->result.analytics.clustering.wedges : ~0ULL, ref.wedges);
      });
      if (lg->spec.family != Family::kHolmeKim) continue;
      report_.set("mining.kclique_s", timed(tag + "mining.kclique", [&] {
        auto q = run(tc::AnalyticKind::kKClique);
        check("4-cliques", q ? q->result.analytics.count : ~0ULL, ref.cliques4);
      }), "s");
      report_.set("mining.ktruss_s", timed(tag + "mining.ktruss", [&] {
        auto q = run(tc::AnalyticKind::kKTruss);
        check("truss max k", q ? q->result.analytics.truss.max_k : ~0ULL, ref.truss_max_k);
        check("truss max-k edges", q ? q->result.analytics.truss.edges_in_max_truss : ~0ULL,
              ref.truss_max_edges);
      }), "s");
    }
  }

 private:
  const RunOptions& options_;
  Tracer& tracer_;
  RunReport& report_;
  const core::LotusConfig config_;
  std::uint64_t request_ = 0;
};

}  // namespace

void trace_layers(const WorkloadSpec& workload, const std::vector<LoadedGraph>& graphs,
                  const RunOptions& options, Tracer& tracer, RunReport& report) {
  lotus::parallel::set_num_threads(kQueryThreads);
  Layers layers(options, tracer, report);
  Sums sum;
  // Cold workloads query LOTUS only: spill that artifact alone. Serving
  // workloads spill both kinds.
  const std::vector<tc::ArtifactKind> spilled =
      workload.serving ? std::vector{tc::ArtifactKind::kOriented, tc::ArtifactKind::kLotus}
                       : std::vector{tc::ArtifactKind::kLotus};
  for (const LoadedGraph& lg : graphs) {
    layers.lotus(lg, options.seconds / static_cast<double>(graphs.size()), sum);
    layers.forward(lg, sum);
    const std::uint64_t lotus_bytes = layers.artifacts(lg, spilled, sum);
    // Room for one LOTUS artifact only, so the sequence evicts and remaps.
    // serve-mixed reports the engine layer from its own stream instead.
    if (!workload.serving) engine_sequence(lg, lotus_bytes + lotus_bytes / 2, options, report);
  }

  // The mining layer runs on the serving graphs; the cold graphs take
  // minutes there, so cold workloads time it on the low-skew companion.
  std::vector<const LoadedGraph*> mining;
  LoadedGraph companion;
  if (workload.serving) {
    for (const LoadedGraph& lg : graphs) mining.push_back(&lg);
  } else {
    const std::string path = input_path(options.input_dir, workload.mining_graph, 0);
    auto loaded = g::read_csr_binary_s(path);
    Reference ref;
    if (!loaded.ok() || !read_reference(path, ref)) {
      report.fail("cannot load the mining companion input " + path);
      return;
    }
    companion.spec = workload.mining_graph;
    companion.versions.push_back(std::move(loaded.value()));
    companion.refs.push_back(ref);
    mining.push_back(&companion);
  }
  layers.mining(mining, sum);

  const double count = sum.phase[0] + sum.phase[1] + sum.phase[2];
  auto ratio = [](double a, double b) { return b != 0 ? a / b : 0.0; };
  // The decomposition makes the same calls as tc::query, so the spans should
  // account for the untraced time; a gap means a layer the trace misses.
  const double coverage = ratio(sum.covered, sum.untraced);
  report.set("graph.orient_s", sum.orient, "s");
  report.set("lotus.relabel_s", sum.relabel, "s");
  report.set("lotus.build_s", sum.build, "s");
  report.set("lotus.hhh_hhn_s", sum.phase[0], "s");
  report.set("lotus.hnn_s", sum.phase[1], "s");
  report.set("lotus.nnn_s", sum.phase[2], "s");
  report.set("lotus.hub_count", static_cast<double>(sum.hubs), "count");
  report.set("lotus.he_edges", static_cast<double>(sum.he), "count");
  report.set("lotus.nhe_edges", static_cast<double>(sum.nhe), "count");
  report.set("lotus.hhh_hhn.triangles", static_cast<double>(sum.triangles[0]), "count");
  report.set("lotus.hnn.triangles", static_cast<double>(sum.triangles[1]), "count");
  report.set("lotus.nnn.triangles", static_cast<double>(sum.triangles[2]), "count");
  report.set("lotus.hnn.yield",
             ratio(static_cast<double>(sum.triangles[1]), static_cast<double>(sum.nhe)), "ratio");
  report.set("lotus.topology_mb", static_cast<double>(sum.topology) / (1024.0 * 1024.0), "MB");
  report.set("lotus.topology_llc_ratio",
             ratio(static_cast<double>(sum.topology), static_cast<double>(llc_bytes())), "ratio");
  report.set("forward.count_s", sum.forward, "s");
  report.set("forward.wedges", static_cast<double>(sum.wedges), "count");
  report.set("forward.yield",
             ratio(static_cast<double>(sum.forward_triangles), static_cast<double>(sum.wedges)),
             "ratio");
  report.set("mining.local_counts_s", sum.local_counts, "s");
  report.set("mining.clustering_s", sum.clustering, "s");
  report.set("tc.prepare_oriented_s", sum.prepare_oriented, "s");
  report.set("tc.prepare_lotus_s", sum.prepare_lotus, "s");
  report.set("tc.query_self_s", sum.self, "s");
  report.set("spill.save_s", sum.save, "s");
  report.set("spill.remap_s", sum.remap, "s");
  report.set("parallel.lotus_count_speedup", ratio(sum.serial_count, count), "ratio");
  report.set("trace.coverage", coverage, "ratio");
  report.set("trace.overhead_frac", ratio(sum.overhead, sum.untraced), "ratio");
  report.notes["untraced_query_s"] = std::to_string(sum.untraced);
  // At self-test size a query takes milliseconds and thread wake-ups decide
  // the ratio, so the check holds the full-size cold workloads only.
  if (!workload.serving && !options.tiny && !(coverage >= 0.9 && coverage <= 1.1))
    report.fail("trace.coverage " + std::to_string(coverage) + " is outside 0.9-1.1");
}

}  // namespace lotusbench
