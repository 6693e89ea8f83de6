#include "tc/instrumented.hpp"

#include "kernels/forward.hpp"
#include "lotus/count.hpp"
#include "parallel/thread_pool.hpp"

namespace lotus::tc {

using graph::VertexId;

std::uint64_t replay_forward(const graph::OrientedCsr& oriented,
                             simcache::PerfModel& model) {
  return kernels::forward_loop<kernels::SparseKernel::kMerge,
                               kernels::DenseSet::kNone>(
      oriented.num_vertices(),
      [&](VertexId v) { return oriented.neighbors(v); }, kernels::kNeverDense,
      model);
}

namespace {

/// RAII guard forcing the default pool to one thread, because probes are
/// unsynchronized state shared across the instrumented phases.
class SingleThreadGuard {
 public:
  SingleThreadGuard() : previous_(parallel::num_threads()) {
    parallel::set_num_threads(1);
  }
  ~SingleThreadGuard() { parallel::set_num_threads(previous_); }
  SingleThreadGuard(const SingleThreadGuard&) = delete;
  SingleThreadGuard& operator=(const SingleThreadGuard&) = delete;

 private:
  unsigned previous_;
};

}  // namespace

std::uint64_t replay_lotus(const core::LotusGraph& lg,
                           const core::LotusConfig& config,
                           simcache::PerfModel& model) {
  return replay_lotus_sampled(lg, config, model).triangles;
}

SampledLotusReplay replay_lotus_sampled(const core::LotusGraph& lg,
                                        const core::LotusConfig& config,
                                        simcache::PerfModel& model) {
  SingleThreadGuard guard;
  SampledLotusReplay out;
  const auto hub_phase = core::count_hhh_hhn(lg, config,
                                             core::TilingPolicy::kSquared,
                                             nullptr, model);
  out.after_hub = model.counters();
  const std::uint64_t hnn = core::count_hnn(lg, model);
  out.after_hnn = model.counters();
  const std::uint64_t nnn = core::count_nnn(lg, model);
  out.after_nnn = model.counters();
  out.triangles = hub_phase.hhh + hub_phase.hhn + hnn + nnn;
  return out;
}

namespace {

/// Probe that only histograms H2H word reads; all other events are ignored.
struct H2HHistogramProbe {
  const void* h2h_base = nullptr;
  const void* h2h_end = nullptr;
  std::vector<std::uint64_t>* histogram = nullptr;

  void read(const void* addr, std::size_t /*bytes*/) {
    if (addr >= h2h_base && addr < h2h_end) {
      const auto offset = static_cast<std::uint64_t>(
          static_cast<const char*>(addr) - static_cast<const char*>(h2h_base));
      (*histogram)[offset / 64]++;
    }
  }
  void branch(std::uint64_t, bool) {}
  void op(std::uint64_t = 1) {}
};

}  // namespace

std::vector<std::uint64_t> h2h_cacheline_histogram(
    const core::LotusGraph& lg, const core::LotusConfig& config) {
  const auto& h2h = lg.h2h();
  const std::uint64_t lines = (h2h.size_bytes() + 63) / 64;
  std::vector<std::uint64_t> histogram(lines, 0);
  if (lines == 0) return histogram;

  H2HHistogramProbe probe{h2h.word_address(0),
                          static_cast<const char*>(h2h.word_address(0)) +
                              h2h.size_bytes(),
                          &histogram};
  SingleThreadGuard guard;
  core::count_hhh_hhn(lg, config, core::TilingPolicy::kSquared, nullptr, probe);
  return histogram;
}

}  // namespace lotus::tc
