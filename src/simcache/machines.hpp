// Machine models from Table 3.
//
// Each entry describes one evaluation machine's per-core cache hierarchy and
// TLB. Because the replayed workloads are laptop-scale stand-ins for the
// paper's billion-edge graphs, each machine also has a `scaled(k)` variant
// that divides capacities by k — every cache level and the dTLB reach —
// keeping the cache:working-set ratio, and therefore the Fig. 4/5
// contrasts, representative.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "simcache/cache_model.hpp"

namespace lotus::simcache {

struct MachineConfig {
  std::string name;
  CacheConfig l1;
  CacheConfig l2;
  CacheConfig l3;  // the slice visible to one core's accesses
  TlbConfig dtlb;

  [[nodiscard]] MachineConfig scaled(std::uint32_t factor) const {
    MachineConfig m = *this;
    m.name = name + "/÷" + std::to_string(factor);
    const auto shrink = [factor](CacheConfig& cache) {
      const std::uint64_t way_bytes =
          static_cast<std::uint64_t>(cache.line_bytes) * cache.associativity;
      std::uint64_t size = cache.size_bytes / factor;
      size -= size % way_bytes;  // keep set count integral
      cache.size_bytes = std::max(way_bytes, size);
    };
    shrink(m.l1);
    shrink(m.l2);
    shrink(m.l3);
    // The page size is fixed, so the reach shrinks through the entry count;
    // at least one entry, and a whole number of sets.
    const std::uint32_t entries = std::max(1u, dtlb.entries / factor);
    m.dtlb.associativity = std::min(dtlb.associativity, entries);
    m.dtlb.entries = entries - entries % m.dtlb.associativity;
    return m;
  }
};

/// Intel Xeon Gold 6130 (Table 3): 32K L1, 1M L2, 22M shared L3.
inline MachineConfig skylakex() {
  return {
      "SkyLakeX",
      {"L1", 32 * 1024, 64, 8},
      {"L2", 1024 * 1024, 64, 16},
      {"L3", 22ull * 1024 * 1024, 64, 11},
      {64, 4096, 4},
  };
}

/// Intel Xeon E5-4627 (Haswell): 32K L1, 256K L2, 25.6M L3.
inline MachineConfig haswell() {
  return {
      "Haswell",
      {"L1", 32 * 1024, 64, 8},
      {"L2", 256 * 1024, 64, 8},
      {"L3", 25ull * 1024 * 1024, 64, 20},
      {64, 4096, 4},
  };
}

/// AMD Epyc 7702: 32K L1, 512K L2, 16M L3 per CCX (512M total).
inline MachineConfig epyc() {
  return {
      "Epyc",
      {"L1", 32 * 1024, 64, 8},
      {"L2", 512 * 1024, 64, 8},
      {"L3", 16ull * 1024 * 1024, 64, 16},
      {64, 4096, 4},
  };
}

}  // namespace lotus::simcache
