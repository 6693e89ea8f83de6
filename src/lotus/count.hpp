// LOTUS triangle counting (Alg. 3): three phases, each concentrating its
// random memory accesses on one small data structure (Table 2).
//
// Every phase is templated on a memory probe (default NullProbe → zero
// overhead) so the instrumented replays in src/tc reuse this exact code.
// Probes are stateful and unsynchronized: instrumented runs must execute
// with parallel::set_num_threads(1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "kernels/forward.hpp"
#include "kernels/intersect.hpp"
#include "lotus/lotus_graph.hpp"
#include "lotus/tiling.hpp"
#include "obs/counters.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/memory_budget.hpp"

namespace lotus::core {

struct HubPhaseCounts {
  std::uint64_t hhh = 0;  // triangles whose apex vertex is itself a hub
  std::uint64_t hhn = 0;  // apex is a non-hub with two connected hub neighbours
};

/// One contiguous h1-index range of one vertex's HE list; the unit of
/// phase-1 scheduling.
struct HubTile {
  graph::VertexId v;
  std::uint32_t begin;
  std::uint32_t end;
};

/// Build the phase-1 tile list under a partitioning policy. Squared tiling
/// splits heavy vertices (HE degree > threshold) into equal-pair-work tiles;
/// light vertices are batched separately by the scheduler. Edge-balanced
/// splits the flattened HE entry stream into ~256·threads equal-entry tiles
/// (the comparison policy of Table 9).
std::vector<std::vector<HubTile>> build_hub_tasks(const LotusGraph& lg,
                                                  const LotusConfig& config,
                                                  TilingPolicy policy,
                                                  unsigned threads);

/// Phase 1 — HHH + HHN (Alg. 3 lines 2-6). Iterates all pairs of hub
/// neighbours of every vertex and tests connectivity in the H2H bit array.
/// `busy_s_out`, if non-null, receives per-thread busy seconds (Table 9).
///
/// With `config.vectorize` and no probe attached, dense tiles take the
/// word-level popcount path instead of per-bit probing: the tile's hub
/// prefix is materialized as a per-thread bitmap over hub-ID space (≤ 8 KiB)
/// and every row of the H2H triangle is ANDed against it 64 bits at a time
/// (kernels/dispatch.hpp, and_window_popcount). A per-tile cost model picks
/// whichever side is cheaper, so sparse tiles — where the row scan would
/// read mostly zero words — keep the scalar bit probes. The obs counter
/// kBitarrayProbes keeps counting *logical* (h1, h2) membership tests under
/// both paths, so the Table 8 probe totals stay comparable.
template <typename Probe = kernels::NullProbe>
HubPhaseCounts count_hhh_hhn(const LotusGraph& lg, const LotusConfig& config,
                             TilingPolicy policy = TilingPolicy::kSquared,
                             std::vector<double>* busy_s_out = nullptr,
                             Probe& probe = kernels::null_probe) {
  const TriangularBitArray& h2h = lg.h2h();
  const graph::Csr16& he = lg.he();

  parallel::ThreadPool& pool = parallel::default_pool();
  auto tasks = build_hub_tasks(lg, config, policy, pool.size());

  const kernels::KernelTable& kernel_table = kernels::kernel_table();
  const std::uint64_t mask_words = (static_cast<std::uint64_t>(lg.hub_count()) + 63) / 64;
  std::vector<std::vector<std::uint64_t>> masks(pool.size());

  std::vector<parallel::Padded<HubPhaseCounts>> partial(pool.size());
  std::vector<parallel::WorkStealingScheduler::Task> jobs;
  jobs.reserve(tasks.size());
  for (auto& task : tasks) {
    jobs.emplace_back([&, segments = std::move(task)](unsigned thread_index) {
      HubPhaseCounts local;
      std::uint64_t probes = 0;  // logical H2H tests; dead when LOTUS_OBS=0
      for (const HubTile& tile : segments) {
        auto list = he.neighbors(tile.v);
        probes += pair_work(tile.begin, tile.end);
        std::uint64_t found = 0;
        bool counted = false;
        if constexpr (std::is_same_v<Probe, kernels::NullProbe>) {
          if (config.vectorize && tile.end >= 2) {
            // Model: scalar pays ~1 op per enumerated pair; the popcount
            // path pays ~1 op per row window word plus the bitmap
            // build/clear. Engage on a modeled ≥2× win.
            const std::uint64_t pair_cost = pair_work(tile.begin, tile.end);
            const std::uint64_t row_words =
                (static_cast<std::uint64_t>(list[tile.end - 1]) >> 6) + 1;
            const std::uint64_t word_cost =
                2 * tile.end + (tile.end - tile.begin) * row_words;
            if (word_cost * 2 < pair_cost) {
              std::vector<std::uint64_t>& mask = masks[thread_index];
              if (mask.empty()) mask.assign(mask_words, 0);
              for (std::uint32_t b = 0; b < tile.begin; ++b)
                mask[list[b] >> 6] |= 1ULL << (list[b] & 63);
              for (std::uint32_t a = tile.begin; a < tile.end; ++a) {
                const std::uint16_t h1 = list[a];
                if (a > 0) {
                  // Members list[0..a) all precede h1, so the mask's live
                  // words end at list[a-1]'s word.
                  const std::size_t live_words =
                      (static_cast<std::size_t>(list[a - 1]) >> 6) + 1;
                  found += kernel_table.and_window_popcount(
                      h2h.words().data(), h2h.words().size(),
                      TriangularBitArray::row_base(h1), mask.data(),
                      live_words);
                }
                mask[h1 >> 6] |= 1ULL << (h1 & 63);
              }
              // All set bits are members of list[0..end); zeroing each
              // member's word restores the all-zero invariant.
              for (std::uint32_t b = 0; b < tile.end; ++b)
                mask[list[b] >> 6] = 0;
              counted = true;
            }
          }
        }
        if (!counted) {
          for (std::uint32_t a = tile.begin; a < tile.end; ++a) {
            const std::uint16_t h1 = list[a];
            probe.read(&list[a], sizeof(std::uint16_t));
            const std::uint64_t base = TriangularBitArray::row_base(h1);
            for (std::uint32_t b = 0; b < a; ++b) {
              const std::uint16_t h2 = list[b];
              probe.read(&list[b], sizeof(std::uint16_t));
              const std::uint64_t bit = base + h2;
              probe.read(h2h.word_address(bit), sizeof(std::uint64_t));
              probe.op();
              const bool hit = h2h.test_bit(bit);
              probe.branch(4, hit);
              found += hit ? 1u : 0u;
            }
          }
        }
        (lg.is_hub(tile.v) ? local.hhh : local.hhn) += found;
      }
      obs::count(obs::Counter::kBitarrayProbes, probes);
      partial[thread_index].value.hhh += local.hhh;
      partial[thread_index].value.hhn += local.hhn;
    });
  }

  parallel::WorkStealingScheduler scheduler(pool);
  std::vector<double> busy = scheduler.run(std::move(jobs));
  if (busy_s_out) *busy_s_out = std::move(busy);

  HubPhaseCounts total;
  for (const auto& p : partial) {
    total.hhh += p.value.hhh;
    total.hhn += p.value.hhn;
  }
  return total;
}

/// Phase 2 — HNN (Alg. 3 lines 7-9): for each non-hub edge (v, u), count the
/// common hub neighbours of v and u in the compact 16-bit HE lists.
///
/// With `vectorize`, no probe attached and no memory budget accounting, the
/// count is dense: HE(v) is set once in a per-thread mask over hub-ID space
/// (hub_count bits, ≤ 8 KiB, the mask shape of count_hhh_hhn), every entry
/// of HE(u) for u ∈ NHE(v) is tested against it, and the mask is cleared.
/// Vertices with an empty HE(v) or NHE(v) are skipped. Otherwise every pair
/// takes kernels::intersect — the dispatched 16-bit merge when `vectorize`,
/// the probe-templated scalar mirror when probed or `!vectorize` — so the
/// simcache replays keep their access stream, and under a budget the LOTUS
/// footprint stays exactly the accounted topology.
template <typename Probe = kernels::NullProbe>
std::uint64_t count_hnn(const LotusGraph& lg,
                        Probe& probe = kernels::null_probe,
                        bool vectorize = true) {
  const graph::Csr16& he = lg.he();
  const graph::CsrGraph& nhe = lg.nhe();
  if constexpr (std::is_same_v<Probe, kernels::NullProbe>) {
    if (vectorize && !util::memory_accounting_active()) {
      const std::size_t mask_words = (static_cast<std::size_t>(lg.hub_count()) + 63) / 64;
      std::vector<std::vector<std::uint64_t>> masks(parallel::max_parallelism());
      std::vector<parallel::Padded<std::uint64_t>> partial(masks.size());
      parallel::parallel_for(0, lg.num_vertices(), 64,
          [&](unsigned thread_index, std::uint64_t chunk_begin, std::uint64_t chunk_end) {
            std::uint64_t local = 0;
            std::uint64_t comparisons = 0;  // dead when LOTUS_OBS=0
            std::uint64_t fruitless = 0;
            std::vector<std::uint64_t>& mask = masks[thread_index];
            for (std::uint64_t vi = chunk_begin; vi < chunk_end; ++vi) {
              const auto v = static_cast<graph::VertexId>(vi);
              const auto hub_list = he.neighbors(v);
              const auto nv = nhe.neighbors(v);
              if (hub_list.empty() || nv.empty()) continue;
              if (mask.empty()) mask.assign(mask_words, 0);
              for (const std::uint16_t h : hub_list) mask[h >> 6] |= 1ULL << (h & 63);
              for (const graph::VertexId u : nv) {
                std::uint64_t found = 0;
                const auto hu = he.neighbors(u);
                for (const std::uint16_t h : hu) found += (mask[h >> 6] >> (h & 63)) & 1u;
                comparisons += hu.size();
                fruitless += found == 0 && !hu.empty() ? 1u : 0u;
                local += found;
              }
              for (const std::uint16_t h : hub_list) mask[h >> 6] = 0;
            }
            obs::count(obs::Counter::kIntersectComparisons, comparisons);
            if (fruitless > 0) obs::count(obs::Counter::kFruitlessSearches, fruitless);
            partial[thread_index].value += local;
          });
      std::uint64_t total = 0;
      for (const auto& p : partial) total += p.value;
      return total;
    }
  }
  return parallel::parallel_reduce_add<std::uint64_t>(
      0, lg.num_vertices(), 64, [&](std::uint64_t vi) {
        const auto v = static_cast<graph::VertexId>(vi);
        auto hub_list = he.neighbors(v);
        std::uint64_t local = 0;
        for (graph::VertexId u : nhe.neighbors(v)) {
          probe.read(&u, sizeof(graph::VertexId));
          local += kernels::intersect<std::uint16_t>(hub_list, he.neighbors(u),
                                                     probe, vectorize);
        }
        return local;
      });
}

/// Phase 3 — NNN (Alg. 3 lines 10-12): Forward algorithm restricted to the
/// NHE sub-graph; hub edges are never touched (the pruning of Sec. 3.3).
/// Uninstrumented vectorized runs use the sparse-vs-dense hybrid strategy
/// of the Forward loop (kernels/forward.hpp) at `hybrid_degree_threshold`
/// (by default every vertex that can close a triangle takes the bitmap
/// side); probed or `!vectorize` runs the scalar merge. The dense-bitmap
/// scratch is suppressed — threshold pushed out of reach — while a memory
/// budget is accounting, so the LOTUS footprint under a budget stays
/// exactly the accounted topology.
template <typename Probe = kernels::NullProbe>
std::uint64_t count_nnn(const LotusGraph& lg,
                        Probe& probe = kernels::null_probe,
                        bool vectorize = true,
                        std::uint32_t hybrid_degree_threshold =
                            LotusConfig{}.hybrid_degree_threshold) {
  using kernels::DenseSet;
  using kernels::SparseKernel;
  const graph::CsrGraph& nhe = lg.nhe();
  const auto neighbors = [&](std::uint32_t v) { return nhe.neighbors(v); };
  if constexpr (std::is_same_v<Probe, kernels::NullProbe>) {
    if (vectorize) {
      const std::uint32_t threshold =
          util::memory_accounting_active() || hybrid_degree_threshold == 0
              ? kernels::kNeverDense
              : hybrid_degree_threshold;
      return kernels::forward_loop<SparseKernel::kDispatched, DenseSet::kBitmap>(
          lg.num_vertices(), neighbors, threshold, probe);
    }
  }
  return kernels::forward_loop<SparseKernel::kMerge, DenseSet::kNone>(
      lg.num_vertices(), neighbors, kernels::kNeverDense, probe);
}

/// Blocked HNN (the second Sec. 7 future-work item): processes non-hub
/// edges in blocks of their target u, so the randomly accessed HE lists of
/// one pass come from a bounded ID range and can stay cached. Counting is
/// identical to count_hnn; only the traversal order changes.
template <typename Probe = kernels::NullProbe>
std::uint64_t count_hnn_blocked(const LotusGraph& lg,
                                graph::VertexId block_size,
                                Probe& probe = kernels::null_probe,
                                bool vectorize = true) {
  const graph::Csr16& he = lg.he();
  const graph::CsrGraph& nhe = lg.nhe();
  const graph::VertexId n = lg.num_vertices();
  if (block_size == 0) block_size = 1;
  std::uint64_t total = 0;
  for (graph::VertexId block_begin = lg.hub_count(); block_begin < n;
       block_begin += block_size) {
    const graph::VertexId block_end =
        block_begin + block_size < n ? block_begin + block_size : n;
    total += parallel::parallel_reduce_add<std::uint64_t>(
        0, n, 256, [&](std::uint64_t vi) {
          const auto v = static_cast<graph::VertexId>(vi);
          auto nv = nhe.neighbors(v);
          auto first = std::lower_bound(nv.begin(), nv.end(), block_begin);
          std::uint64_t local = 0;
          for (auto it = first; it != nv.end() && *it < block_end; ++it) {
            probe.read(&*it, sizeof(graph::VertexId));
            local += kernels::intersect<std::uint16_t>(
                he.neighbors(v), he.neighbors(*it), probe, vectorize);
          }
          return local;
        });
  }
  return total;
}

/// Fused HNN + NNN (the rejected alternative of Sec. 4.5, kept for the
/// ablation bench): one pass over NHE doing both intersections, enlarging
/// the randomly accessed working set.
template <typename Probe = kernels::NullProbe>
std::uint64_t count_hnn_nnn_fused(const LotusGraph& lg,
                                  Probe& probe = kernels::null_probe,
                                  bool vectorize = true) {
  const graph::Csr16& he = lg.he();
  const graph::CsrGraph& nhe = lg.nhe();
  return parallel::parallel_reduce_add<std::uint64_t>(
      0, lg.num_vertices(), 64, [&](std::uint64_t vi) {
        const auto v = static_cast<graph::VertexId>(vi);
        auto nv = nhe.neighbors(v);
        auto hub_list = he.neighbors(v);
        std::uint64_t local = 0;
        for (graph::VertexId u : nv) {
          probe.read(&u, sizeof(graph::VertexId));
          local += kernels::intersect<std::uint16_t>(hub_list, he.neighbors(u),
                                                     probe, vectorize);
          local += kernels::intersect<graph::VertexId>(nv, nhe.neighbors(u),
                                                       probe, vectorize);
        }
        return local;
      });
}

}  // namespace lotus::core
