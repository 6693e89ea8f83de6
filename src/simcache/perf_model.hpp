// PerfModel: the composite hardware model + the probe fed to instrumented
// kernels.
//
// Implements the probe interface expected by the intersection kernels and
// LOTUS phases (read / branch / op). Each `read` walks L1 → L2 → L3 and the
// DTLB; each `branch` updates the gshare predictor; each `op` counts one
// arithmetic/compare instruction. The counters map onto the paper's figures:
//   Fig. 4a LLC misses     -> l3.misses()
//   Fig. 4b DTLB misses    -> dtlb.misses()
//   Fig. 5a memory accesses-> loads()
//   Fig. 5b instructions   -> instructions() (ops + loads + branches)
//   Fig. 5c branch mispred.-> mispredicts()
#pragma once

#include <cstdint>

#include "simcache/branch_predictor.hpp"
#include "simcache/cache_model.hpp"
#include "simcache/machines.hpp"

namespace lotus::simcache {

struct PerfCounters {
  std::uint64_t loads = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t dtlb_misses = 0;
  std::uint64_t ops = 0;
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;

  [[nodiscard]] std::uint64_t instructions() const {
    return ops + loads + branches;
  }
};

class PerfModel {
 public:
  explicit PerfModel(const MachineConfig& machine)
      : l1_(machine.l1), l2_(machine.l2), l3_(machine.l3), dtlb_(machine.dtlb) {}

  // --- Probe interface (matches kernels::NullProbe).
  void read(const void* addr, std::size_t /*bytes*/) {
    const auto a = reinterpret_cast<std::uint64_t>(addr);
    ++counters_.loads;
    dtlb_.access(a);
    if (l1_.access(a)) return;
    ++counters_.l1_misses;
    if (l2_.access(a)) return;
    ++counters_.l2_misses;
    if (l3_.access(a)) return;
    ++counters_.llc_misses;
  }

  void branch(std::uint64_t site, bool taken) { predictor_.record(site, taken); }

  void op(std::uint64_t count = 1) { counters_.ops += count; }

  /// Snapshot with derived fields filled in.
  [[nodiscard]] PerfCounters counters() const {
    PerfCounters c = counters_;
    c.dtlb_misses = dtlb_.misses();
    c.branches = predictor_.branches();
    c.mispredicts = predictor_.mispredicts();
    return c;
  }

 private:
  CacheModel l1_;
  CacheModel l2_;
  CacheModel l3_;
  TlbModel dtlb_;
  GsharePredictor predictor_;
  PerfCounters counters_;
};

}  // namespace lotus::simcache
