// Shared pieces of the lotusbench binary: workload and input definitions,
// the wall clock, small statistics helpers, the in-memory span recorder and
// the metric sink every workload writes into.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "tc/api.hpp"

namespace lotusbench {

namespace graph = lotus::graph;

/// Query width (pool threads) on every workload.
constexpr unsigned kQueryThreads = 4;

/// Set-ups per run; setup_s is their median.
constexpr unsigned kSetupReps = 3;

/// splitmix64: advances `state` and returns the next 64 pseudo-random bits.
inline std::uint64_t next_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seconds on the steady clock since an arbitrary epoch.
inline double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; the same rule as
/// numpy's default. Infinite samples sort last, so a failed request moves the
/// upper percentiles.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Σ C(d, 2) over the vertices of `graph` (a CsrGraph counts wedges, an
/// OrientedCsr the wedges the Forward kernels close).
template <typename Graph>
std::uint64_t count_wedges(const Graph& graph) {
  std::uint64_t w = 0;
  for (graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
    const std::uint64_t d = graph.degree(v);
    w += d * (d - (d > 0 ? 1 : 0)) / 2;
  }
  return w;
}

/// `s` with quotes and backslashes escaped and control characters dropped,
/// for a JSON string.
std::string json_escape(const std::string& s);

/// The result of a query that ran and succeeded, or nullptr.
inline const lotus::tc::QueryResult* served(
    const lotus::util::Expected<lotus::tc::QueryResult>& q) {
  return q.ok() && q.value().ok() ? &q.value() : nullptr;
}

// ---------------------------------------------------------------------------
// Inputs

/// Which in-tree generator a graph comes from. The parameters mirror the
/// dataset registry entries named in the comments (src/datasets/registry.cpp);
/// only the seed differs — it comes from the benchmark's --seed.
enum class Family {
  kRmatSocial,  // Twtr-S: RMAT, 128e3·f vertices (rounded to 2^k), edge factor 12
  kCopyWeb,     // SK-S: copy model with crawl-order locality window 4096
  kHolmeKim,    // Frndstr-S: low-skew Holme-Kim, m = 7, p_triad = 0.35
};

struct GraphSpec {
  std::string name;  // short tag, part of the input file name
  Family family;
  double factor;     // registry scale factor
};

/// The graphs one workload loads. Serving workloads keep `versions` seeded
/// versions of each graph; a write swaps a graph for its next version.
struct WorkloadSpec {
  std::string name;
  std::vector<GraphSpec> graphs;
  unsigned versions = 1;
  bool serving = false;
  /// Low-skew graph a cold workload's traced run times the mining layer on
  /// (the DFS analytics take minutes on the skewed cold graphs).
  GraphSpec mining_graph;
};

/// The three workloads, or nullptr for an unknown name. `tiny` shrinks every
/// graph to a self-test size.
const WorkloadSpec* find_workload(const std::string& name, bool tiny);

/// Reference answers for one input, computed once at generation time by
/// paths independent of the ones the benchmark measures.
struct Reference {
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;       // undirected
  std::uint64_t triangles = 0;   // forward-merge
  std::uint64_t wedges = 0;      // Σ C(d, 2)
  std::uint64_t cliques4 = 0;    // own 4-clique enumeration (low-skew only)
  std::uint32_t truss_max_k = 0; // own peeling (low-skew only)
  std::uint64_t truss_max_edges = 0;
  std::uint64_t digest = 0;       // of the graph the answers belong to
};

/// Input file layout: <dir>/<graph>-f<factor>-v<version>.gr plus
/// a .ref sidecar holding the Reference.
std::string input_path(const std::string& dir, const GraphSpec& spec, unsigned version);
bool read_reference(const std::string& graph_path, Reference& out);

/// Generate every input of `workload` for `seed` into `dir` (skipping files
/// already there), computing and storing references, then cross-check tiny
/// instances of every generator against brute force. `traced` adds the
/// inputs only a traced run reads (the mining companion). Returns 0 on
/// success.
int generate_inputs(const WorkloadSpec& workload, std::uint64_t seed,
                    const std::string& dir, bool traced);

// ---------------------------------------------------------------------------
// Tracing

/// One span: a layer boundary the benchmark's own code crossed. Spans of one
/// request share `request`; `parent` indexes the causing span (-1 = root).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Spans kept in memory for the whole run and written out at exit.
class Tracer {
 public:
  int open(std::string name, int parent, std::uint64_t request) {
    spans_.push_back({std::move(name), now_s(), 0.0, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }
  /// A span whose interval was measured elsewhere.
  int record(std::string name, double start, double end, int parent, std::uint64_t request) {
    spans_.push_back({std::move(name), start, end, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now_s();
    return s.end - s.start;
  }
  /// Duration minus the union of the child spans' intervals.
  [[nodiscard]] double self_time(int id) const;
  /// Median self time of every span named `name`, summed per request first
  /// (a request may cross one layer more than once).
  [[nodiscard]] double median_self(const std::string& name) const;
  /// Write the spans as one JSON document.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class Scoped {
 public:
  Scoped(Tracer* tracer, std::string name, int parent, std::uint64_t request)
      : tracer_(tracer),
        id_(tracer ? tracer->open(std::move(name), parent, request) : -1) {}
  ~Scoped() { stop(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  double stop() {
    if (tracer_ == nullptr || closed_) return 0.0;
    closed_ = true;
    return tracer_->close(id_);
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// Results

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one measured run reports.
struct RunReport {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, std::string> notes;  // samples, failure reasons, ...

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    if (notes.count("first_failure") == 0) notes["first_failure"] = why;
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string input_dir;
  std::string scratch_dir;  // spill files
  std::string trace_path;   // where a traced run writes its spans
};

/// Loaded inputs of one graph (all versions) with their references.
struct LoadedGraph {
  GraphSpec spec;
  std::vector<graph::CsrGraph> versions;
  std::vector<Reference> refs;
};

/// Load every input file of the workload; returns the summed wall time of
/// the read_csr_binary_s calls, or a negative value on failure.
double load_inputs(const WorkloadSpec& workload, const RunOptions& options,
                   std::vector<LoadedGraph>& out, RunReport& report);

/// Peak resident set of this process in MB.
double peak_rss_mb();

/// The workloads (cold.cpp, serve.cpp).
void run_cold(const WorkloadSpec& workload, const RunOptions& options, RunReport& report);
void run_serve(const WorkloadSpec& workload, const RunOptions& options, RunReport& report);

/// Layer metrics every workload reports in a traced run (cold.cpp): the
/// LOTUS decomposition, forward, mining, prepared artifacts, spill and the
/// thread-scaling ratio, over the given graphs.
void trace_layers(const WorkloadSpec& workload, const std::vector<LoadedGraph>& graphs,
                  const RunOptions& options, Tracer& tracer, RunReport& report);

/// Engine layer metrics for a cold workload (serve.cpp): a short request
/// sequence on one Engine whose cache holds one LOTUS artifact while two
/// keys name the graph, so it misses, hits, spills and remaps.
void engine_sequence(const LoadedGraph& graph, std::uint64_t cache_budget,
                     const RunOptions& options, RunReport& report);

/// Host fingerprint as a JSON object (host.cpp).
std::string host_fingerprint_json();
std::uint64_t llc_bytes();

}  // namespace lotusbench
