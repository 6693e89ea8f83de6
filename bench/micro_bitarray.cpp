// Micro-benchmark: H2H bit-array probes vs a hash-set membership check —
// the design discussion of Sec. 5.7 (a hash table would cost more
// instructions per probe and more memory).
#include <benchmark/benchmark.h>

#include <vector>

#include "kernels/intersect.hpp"
#include "lotus/h2h_bitarray.hpp"
#include "util/prng.hpp"

namespace {

using lotus::core::TriangularBitArray;

constexpr std::uint32_t kHubs = 8192;

TriangularBitArray make_h2h(double density, std::uint64_t seed) {
  TriangularBitArray h2h(kHubs);
  lotus::util::Xoshiro256 rng(seed);
  const auto target = static_cast<std::uint64_t>(density * static_cast<double>(h2h.num_bits()));
  for (std::uint64_t i = 0; i < target; ++i) {
    const auto h1 = static_cast<std::uint32_t>(1 + rng.next_below(kHubs - 1));
    const auto h2 = static_cast<std::uint32_t>(rng.next_below(h1));
    h2h.set_atomic(h1, h2);
  }
  return h2h;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> make_queries(std::uint64_t seed) {
  lotus::util::Xoshiro256 rng(seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> q(1 << 16);
  for (auto& [h1, h2] : q) {
    h1 = static_cast<std::uint32_t>(1 + rng.next_below(kHubs - 1));
    h2 = static_cast<std::uint32_t>(rng.next_below(h1));
  }
  return q;
}

void BM_H2HProbe(benchmark::State& state) {
  const auto h2h = make_h2h(0.02, 1);
  const auto queries = make_queries(2);
  for (auto _ : state) {
    std::uint64_t hits = 0;
    for (const auto& [h1, h2] : queries) hits += h2h.test(h1, h2) ? 1u : 0u;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(queries.size()));
}

void BM_HashSetProbe(benchmark::State& state) {
  // Same adjacency encoded as 64-bit pair keys in the open-addressing set.
  const auto h2h = make_h2h(0.02, 1);
  std::vector<std::uint64_t> keys;
  for (std::uint32_t h1 = 1; h1 < kHubs; ++h1)
    for (std::uint32_t h2 = 0; h2 < h1; ++h2)
      if (h2h.test(h1, h2)) keys.push_back((std::uint64_t{h1} << 32) | h2);
  lotus::kernels::HashedSet<std::uint64_t> set;
  set.build(keys);
  const auto queries = make_queries(2);
  for (auto _ : state) {
    std::uint64_t hits = 0;
    for (const auto& [h1, h2] : queries)
      hits += set.contains((std::uint64_t{h1} << 32) | h2) ? 1u : 0u;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(queries.size()));
}

BENCHMARK(BM_H2HProbe);
BENCHMARK(BM_HashSetProbe);

}  // namespace

BENCHMARK_MAIN();
