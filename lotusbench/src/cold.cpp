// Cold workloads: one closed-loop client issuing tc::query(kLotus) on a graph
// larger than the LLC; every query rebuilds the LOTUS structure.
#include <algorithm>
#include <limits>

#include "common.hpp"
#include "parallel/thread_pool.hpp"
#include "tc/api.hpp"

namespace lotusbench {

namespace g = lotus::graph;
namespace tc = lotus::tc;

namespace {

constexpr std::size_t kMinSamples = 5;

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

void run_cold(const WorkloadSpec& workload, const RunOptions& options, RunReport& report) {
  lotus::parallel::set_num_threads(kQueryThreads);
  std::vector<LoadedGraph> graphs;
  std::vector<double> setup;
  for (unsigned r = 0; r < kSetupReps; ++r) {
    const double t = load_inputs(workload, options, graphs, report);
    if (t < 0) return;
    setup.push_back(t);
  }
  report.set("setup_s", median(setup), "s");
  if (options.trace) {
    Tracer tracer;
    report.set("graph.load_s", median(setup), "s");
    trace_layers(workload, graphs, options, tracer, report);
    if (!tracer.write(options.trace_path)) report.fail("cannot write " + options.trace_path);
    return;
  }

  const g::CsrGraph& graph = graphs[0].versions[0];
  const Reference& ref = graphs[0].refs[0];
  auto one_query = [&]() {
    const double t0 = now_s();
    auto q = tc::query(tc::Algorithm::kLotus, graph);
    const double latency = now_s() - t0;
    ++report.attempted;
    if (!served(q)) {
      ++report.failed;
      report.fail("lotus query returned a non-ok status");
      return kInf;
    }
    if (served(q)->result.triangles != ref.triangles) {
      ++report.failed;
      report.fail("lotus triangles " + std::to_string(served(q)->result.triangles) +
                  " != reference " + std::to_string(ref.triangles));
      return kInf;
    }
    return latency;
  };

  std::vector<double> samples;
  const double start = now_s();
  while (now_s() - start < options.seconds || samples.size() < kMinSamples)
    samples.push_back(one_query());
  const double wall = now_s() - start;

  const double p50 = quantile(samples, 0.5);
  report.set("query_p50_s", p50, "s");
  report.set("query_p90_s", quantile(samples, 0.9), "s");
  report.set("edges_per_s", tc::edges_per_s(ref.edges, p50), "edges/s");
  const auto completed = std::count_if(samples.begin(), samples.end(),
                                       [](double t) { return t < kInf; });
  report.set("qps", static_cast<double>(completed) / wall, "1/s");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report.notes["samples"] = std::to_string(samples.size());
  std::string all;
  for (double t : samples) {
    if (!all.empty()) all += ' ';
    all += std::to_string(t);
  }
  report.notes["latencies_s"] = all;
}


}  // namespace lotusbench
