// The Forward loop (Alg. 1): for every vertex v and every u in N⁺(v), count
// |N⁺(v) ∩ N⁺(u)| over a degree-ordered oriented adjacency.
//
// Every Forward-family counter in the repository is this one loop: the
// gap-forward/gallop/SIMD/hashed/bitmap/hybrid baselines, the LOTUS NNN
// phase (Alg. 3 lines 10-12, Forward restricted to the NHE sub-graph) and
// the simcache replay of gap-forward. They differ only in how
// N⁺(v) ∩ N⁺(u) is computed, which an IntersectStrategy names: a sparse
// pairwise kernel, a dense per-vertex set, and the out-degree at which a
// vertex switches from the first to the second — the sparse-vs-dense split
// of the fastest GraphChallenge single-node counters.
//
//   strategy     sparse side       dense side               dense at degree ≥
//   kMerge       scalar merge      —                        never
//   kGallop      galloping search  —                        never
//   kSimd        dispatched merge  —                        never
//   kHashed      —                 HashedSet                2
//   kBitmap      —                 bitmap + hits_bitset     2
//   hybrid(t)    dispatched merge  bitmap + hits_bitset     t
//
// A vertex with fewer than two out-neighbours closes no triangle. Strategies
// with a dense side skip it, so the dense-only ones never reach their
// sparse kernel; sparse-only strategies visit it, which keeps the probed
// gap-forward replay on the access stream the simcache figures were
// measured with.
//
// forward_loop<Sparse, Dense> is the loop itself, templated on the
// neighbours function, the probe and both kernels so the inner loop stays
// monomorphic; forward_count switches on a runtime strategy once per call.
//
// Probe contract (kernels/intersect.hpp): with a non-NullProbe probe every
// kernel replays its exact scalar access stream — the dispatched merge
// falls back to the scalar merge and the bitmap probe to count_bitmap_hits.
//
// Memory: the dense side keeps one set per worker thread (a HashedSet sized
// for the largest list, or an n-bit bitmap), allocated lazily on the worker
// that first meets a dense vertex. Workers cannot charge a memory budget,
// so forward_loop charges the worst case on the calling (master) thread
// before fanning out, and only when some vertex reaches the dense side —
// the one scratch-charging site of the Forward family. Callers that must
// stay allocation-free under a budget pass a threshold no vertex reaches
// (the LOTUS NNN phase does).
//
// obs: the scalar merge and gallop kernels flush their exact comparison
// counts per call. The dispatched merge and the dense sets tally per chunk
// and flush once: |a|+|b| per dispatched merge (plus a fruitless tick when
// it finds nothing), |N⁺(u)| per dense probe.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "kernels/dispatch.hpp"
#include "kernels/intersect.hpp"
#include "obs/counters.hpp"
#include "parallel/padded.hpp"
#include "parallel/parallel_for.hpp"
#include "util/bitset.hpp"
#include "util/memory_budget.hpp"

namespace lotus::kernels {

/// Pairwise kernel for the vertices below the dense threshold.
enum class SparseKernel { kMerge, kGallop, kDispatched };

/// The set N⁺(v) is materialized into at or above the dense threshold.
enum class DenseSet { kNone, kHashed, kBitmap };

/// A dense threshold no vertex reaches.
inline constexpr std::uint32_t kNeverDense = ~std::uint32_t{0};

/// How one Forward pass computes |N⁺(v) ∩ N⁺(u)|.
struct IntersectStrategy {
  SparseKernel sparse = SparseKernel::kMerge;
  DenseSet dense = DenseSet::kNone;
  /// Out-degree at or above which v takes the dense side.
  std::uint32_t dense_threshold = kNeverDense;
};

/// The named strategies of the table above.
namespace strategy {
inline constexpr IntersectStrategy kMerge{SparseKernel::kMerge, DenseSet::kNone,
                                          kNeverDense};
inline constexpr IntersectStrategy kGallop{SparseKernel::kGallop,
                                           DenseSet::kNone, kNeverDense};
inline constexpr IntersectStrategy kSimd{SparseKernel::kDispatched,
                                         DenseSet::kNone, kNeverDense};
inline constexpr IntersectStrategy kHashed{SparseKernel::kMerge,
                                           DenseSet::kHashed, 2};
inline constexpr IntersectStrategy kBitmap{SparseKernel::kMerge,
                                           DenseSet::kBitmap, 2};
[[nodiscard]] constexpr IntersectStrategy hybrid(std::uint32_t dense_threshold) {
  return {SparseKernel::kDispatched, DenseSet::kBitmap, dense_threshold};
}
}  // namespace strategy

namespace detail {

template <DenseSet D>
using DenseScratch =
    std::conditional_t<D == DenseSet::kHashed, HashedSet<std::uint32_t>,
                       util::Bitset>;

/// Charge the dense side's per-thread scratch on the calling thread.
template <DenseSet D, typename NeighborsFn>
void charge_dense_scratch(std::uint64_t num_vertices, NeighborsFn& neighbors,
                          std::uint32_t dense_threshold, unsigned slots) {
  if (!util::memory_accounting_active()) return;
  std::size_t max_degree = 0;
  for (std::uint64_t v = 0; v < num_vertices; ++v)
    max_degree = std::max(max_degree,
                          neighbors(static_cast<std::uint32_t>(v)).size());
  if (max_degree < std::max<std::uint32_t>(dense_threshold, 2)) return;
  const std::uint64_t per_thread =
      D == DenseSet::kHashed
          ? HashedSet<std::uint32_t>::capacity_for(max_degree) *
                sizeof(std::uint64_t)
          : (num_vertices + 63) / 64 * sizeof(std::uint64_t);
  util::charge_current(slots * per_thread, "forward_dense_scratch");
}

}  // namespace detail

/// Count closed wedges: Σ over v, u ∈ neighbors(v) of
/// |neighbors(v) ∩ neighbors(u)|. `neighbors` returns ascending
/// std::span<const std::uint32_t> lists, is safe to call concurrently, and
/// every neighbour ID is < num_vertices.
template <SparseKernel S, DenseSet D, typename NeighborsFn,
          typename Probe = NullProbe>
std::uint64_t forward_loop(std::uint64_t num_vertices, NeighborsFn&& neighbors,
                           std::uint32_t dense_threshold,
                           Probe& probe = null_probe) {
  using Id = std::uint32_t;
  constexpr bool kDispatched =
      S == SparseKernel::kDispatched && std::is_same_v<Probe, NullProbe>;
  const unsigned slots = parallel::max_parallelism();
  if constexpr (D != DenseSet::kNone)
    detail::charge_dense_scratch<D>(num_vertices, neighbors, dense_threshold,
                                    slots);
  const KernelTable& table = kernel_table();
  std::vector<parallel::Padded<std::uint64_t>> partial(slots);
  std::vector<detail::DenseScratch<D>> dense(D == DenseSet::kNone ? 0 : slots);

  const auto chunk = [&](unsigned thread_index, std::uint64_t chunk_begin,
                         std::uint64_t chunk_end) {
    std::uint64_t local = 0;
    std::uint64_t comparisons = 0;  // dead when LOTUS_OBS=0
    std::uint64_t fruitless = 0;
    for (std::uint64_t vi = chunk_begin; vi < chunk_end; ++vi) {
      const std::span<const Id> nv = neighbors(static_cast<Id>(vi));
      if constexpr (D != DenseSet::kNone)
        if (nv.size() < 2) continue;
      if constexpr (D == DenseSet::kHashed) {
        if (nv.size() >= dense_threshold) {
          HashedSet<Id>& set = dense[thread_index];
          set.build(nv);
          for (const Id u : nv) {
            probe.read(&u, sizeof(Id));
            const std::span<const Id> nu = neighbors(u);
            local += set.count_hits(nu, probe);
            comparisons += nu.size();
          }
          continue;
        }
      } else if constexpr (D == DenseSet::kBitmap) {
        if (nv.size() >= dense_threshold) {
          util::Bitset& bitmap = dense[thread_index];
          if (bitmap.size() == 0) bitmap = util::Bitset(num_vertices);
          for (const Id u : nv) bitmap.set(u);
          for (const Id u : nv) {
            probe.read(&u, sizeof(Id));
            const std::span<const Id> nu = neighbors(u);
            if constexpr (std::is_same_v<Probe, NullProbe>)
              local += table.hits_bitset(nu.data(), nu.size(), bitmap.data());
            else
              local += count_bitmap_hits<Id>(nu, bitmap, probe);
            comparisons += nu.size();
          }
          for (const Id u : nv) bitmap.clear(u);
          continue;
        }
      }
      for (const Id u : nv) {
        probe.read(&u, sizeof(Id));
        const std::span<const Id> nu = neighbors(u);
        if constexpr (kDispatched) {
          const std::uint64_t found =
              table.merge_u32(nv.data(), nv.size(), nu.data(), nu.size());
          if (!nu.empty()) {
            comparisons += nv.size() + nu.size();
            fruitless += found == 0 ? 1u : 0u;
          }
          local += found;
        } else if constexpr (S == SparseKernel::kGallop) {
          local += intersect_gallop<Id>(nu, nv, probe);
        } else {
          // Scalar merge; also the probed mirror of the dispatched merge.
          local += intersect_merge<Id>(nv, nu, probe);
        }
      }
    }
    obs::count(obs::Counter::kIntersectComparisons, comparisons);
    if (fruitless > 0) obs::count(obs::Counter::kFruitlessSearches, fruitless);
    partial[thread_index].value += local;
  };
  // Probes are stateful and unsynchronized: an instrumented pass is serial.
  if constexpr (std::is_same_v<Probe, NullProbe>)
    parallel::parallel_for(0, num_vertices, 64, chunk);
  else
    chunk(0, 0, num_vertices);

  std::uint64_t total = 0;
  for (const auto& p : partial) total += p.value;
  return total;
}

namespace detail {
template <DenseSet D, typename NeighborsFn, typename Probe>
std::uint64_t forward_with_dense(std::uint64_t num_vertices,
                                 NeighborsFn& neighbors,
                                 const IntersectStrategy& s, Probe& probe) {
  switch (s.sparse) {
    case SparseKernel::kMerge:
      return forward_loop<SparseKernel::kMerge, D>(num_vertices, neighbors,
                                                   s.dense_threshold, probe);
    case SparseKernel::kGallop:
      return forward_loop<SparseKernel::kGallop, D>(num_vertices, neighbors,
                                                    s.dense_threshold, probe);
    case SparseKernel::kDispatched:
      return forward_loop<SparseKernel::kDispatched, D>(
          num_vertices, neighbors, s.dense_threshold, probe);
  }
  throw std::invalid_argument("unknown sparse intersection kernel");
}
}  // namespace detail

/// forward_loop under a runtime strategy: one switch, then a monomorphic loop.
template <typename NeighborsFn, typename Probe = NullProbe>
std::uint64_t forward_count(std::uint64_t num_vertices, NeighborsFn&& neighbors,
                            const IntersectStrategy& strategy,
                            Probe& probe = null_probe) {
  switch (strategy.dense) {
    case DenseSet::kNone:
      return detail::forward_with_dense<DenseSet::kNone>(num_vertices, neighbors,
                                                         strategy, probe);
    case DenseSet::kHashed:
      return detail::forward_with_dense<DenseSet::kHashed>(
          num_vertices, neighbors, strategy, probe);
    case DenseSet::kBitmap:
      return detail::forward_with_dense<DenseSet::kBitmap>(
          num_vertices, neighbors, strategy, probe);
  }
  throw std::invalid_argument("unknown dense intersection set");
}

}  // namespace lotus::kernels
