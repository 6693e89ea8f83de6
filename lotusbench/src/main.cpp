// lotusbench: the repository benchmark's measured process.
//
//   lotusbench gen --workload W --seed N --inputs DIR [--trace 0|1] [--tiny]
//       Generate the workload's inputs for the seed (LOTUSGR1 files plus
//       reference sidecars; with --trace 1 also the traced run's extra
//       input) and cross-check tiny instances against brute force. Runs in
//       its own process, so the measured run never pays for it.
//   lotusbench run --workload W --seed N --seconds S --trace 0|1
//                  --inputs DIR --scratch DIR [--trace-out FILE] [--tiny]
//       Measure one run and print two JSON lines: a detail object (host
//       fingerprint, notes, every metric) and, last, the result object.
//       A traced run (--trace 1) writes its spans to the --trace-out file.
//
// Exit codes: 0 ok, 1 a wrong or failed answer, 2 usage or input error.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using namespace lotusbench;

const std::vector<std::string> kEndToEnd = {"setup_s", "query_p50_s", "query_p90_s",
                                            "edges_per_s", "qps", "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "graph.load_s", "graph.orient_s", "lotus.relabel_s", "lotus.build_s", "lotus.hhh_hhn_s",
    "lotus.hnn_s", "lotus.nnn_s", "lotus.hub_count", "lotus.he_edges", "lotus.nhe_edges",
    "lotus.hhh_hhn.triangles", "lotus.hnn.triangles", "lotus.nnn.triangles", "lotus.hnn.yield",
    "lotus.topology_mb", "lotus.topology_llc_ratio", "forward.count_s", "forward.wedges",
    "forward.yield", "mining.kclique_s", "mining.ktruss_s", "mining.local_counts_s",
    "mining.clustering_s", "tc.prepare_oriented_s", "tc.prepare_lotus_s", "tc.query_self_s",
    "engine.queue_p50_s", "engine.hit_ratio", "engine.prepare_s_total", "engine.count_s_total",
    "engine.spills", "engine.remaps", "spill.save_s", "spill.remap_s",
    "parallel.lotus_count_speedup", "trace.coverage", "trace.overhead_frac"};

std::string number(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e308" : "-1e308";  // JSON has no inf
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const RunReport& report, const std::vector<std::string>* names) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    if (names && std::find(names->begin(), names->end(), name) == names->end()) continue;
    out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: lotusbench gen --workload W --seed N --inputs DIR [--trace 0|1] [--tiny]\n"
               "       lotusbench run --workload W --seed N --seconds S --trace 0|1 "
               "--inputs DIR --scratch DIR [--trace-out FILE] [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  RunOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--workload") options.workload = value();
    else if (arg == "--seed") options.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds") options.seconds = std::strtod(value().c_str(), nullptr);
    else if (arg == "--trace") options.trace = value() == "1";
    else if (arg == "--inputs") options.input_dir = value();
    else if (arg == "--scratch") options.scratch_dir = value();
    else if (arg == "--trace-out") options.trace_path = value();
    else if (arg == "--tiny") options.tiny = true;
    else return usage();
  }
  const WorkloadSpec* workload = find_workload(options.workload, options.tiny);
  if (workload == nullptr || options.input_dir.empty()) return usage();
  if (command == "gen")
    return generate_inputs(*workload, options.seed, options.input_dir, options.trace) == 0 ? 0 : 2;
  if (command != "run" || options.scratch_dir.empty() || !(options.seconds > 0) ||
      (options.trace && options.trace_path.empty()))
    return usage();
  std::filesystem::create_directories(options.scratch_dir);

  RunReport report;
  if (options.trace) report.notes["trace_file"] = options.trace_path;
  if (workload->serving)
    run_serve(*workload, options, report);
  else
    run_cold(*workload, options, report);

  const std::vector<std::string>& wanted = options.trace ? kPerLayer : kEndToEnd;
  for (const std::string& name : wanted)
    if (report.metrics.count(name) == 0) report.fail("metric not measured: " + name);
  if (report.attempted == 0) report.fail("no request was attempted");

  std::string notes = "{";
  for (const auto& [k, v] : report.notes)
    notes += std::string(notes.size() > 1 ? ", " : "") + "\"" + k + "\": \"" + json_escape(v) + "\"";
  notes += "}";
  const double failed_frac =
      report.attempted ? static_cast<double>(report.failed) / static_cast<double>(report.attempted)
                       : 1.0;
  std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"trace\": %d, \"seconds\": %s, \"failed_frac\": %s, \"host\": %s, "
              "\"notes\": %s, \"metrics\": %s}}\n",
              workload->name.c_str(), options.seed, options.trace ? 1 : 0,
              number(options.seconds).c_str(), number(failed_frac).c_str(),
              host_fingerprint_json().c_str(), notes.c_str(),
              metrics_json(report, nullptr).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              report.correct ? "true" : "false", report.attempted, report.failed,
              metrics_json(report, &wanted).c_str());
  return report.correct ? 0 : 1;
}
