#include "lotus/relabel.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>

#include "parallel/parallel_for.hpp"

namespace lotus::core {

using graph::CsrGraph;
using graph::VertexId;

namespace {

/// Vertices per block of the parallel scans; blocks are the unit of the
/// per-block counts whose prefix sums place each block's output.
constexpr VertexId kBlock = 1u << 14;

}  // namespace

std::vector<VertexId> create_relabeling_array(const CsrGraph& graph,
                                              VertexId reorder_count) {
  const VertexId n = graph.num_vertices();
  const VertexId k = std::min(reorder_count, n);
  std::vector<VertexId> new_id(n);
  const auto degree = [&graph](VertexId v) { return graph.degree(v); };
  if (k == 0) {
    parallel::parallel_for(0, n, kBlock,
        [&](unsigned, std::uint64_t b, std::uint64_t e) {
          for (std::uint64_t v = b; v < e; ++v) new_id[v] = static_cast<VertexId>(v);
        });
    return new_id;
  }

  // The reordered block is the first k vertices of a stable sort by
  // descending degree: every vertex above the cut degree (the degree of
  // rank k - 1), then the lowest-ID vertices at the cut. A selection finds
  // the cut in O(n); only the k chosen vertices are sorted.
  std::uint32_t cut = 0;
  {
    auto degrees = std::make_unique_for_overwrite<std::uint32_t[]>(n);
    parallel::parallel_for(0, n, kBlock,
        [&](unsigned, std::uint64_t b, std::uint64_t e) {
          for (std::uint64_t v = b; v < e; ++v)
            degrees[v] = degree(static_cast<VertexId>(v));
        });
    std::nth_element(degrees.get(), degrees.get() + (k - 1), degrees.get() + n,
                     std::greater<>());
    cut = degrees[k - 1];
  }

  // Per block: vertices above the cut and vertices at it, then prefix sums.
  const std::uint64_t blocks = (static_cast<std::uint64_t>(n) + kBlock - 1) / kBlock;
  std::vector<std::uint64_t> above(blocks + 1, 0);
  std::vector<std::uint64_t> at_cut(blocks + 1, 0);
  parallel::parallel_for(0, blocks, 1,
      [&](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t block = b; block < e; ++block) {
          const std::uint64_t end = std::min<std::uint64_t>(n, (block + 1) * kBlock);
          std::uint64_t up = 0, level = 0;
          for (std::uint64_t v = block * kBlock; v < end; ++v) {
            const std::uint32_t d = degree(static_cast<VertexId>(v));
            up += d > cut ? 1u : 0u;
            level += d == cut ? 1u : 0u;
          }
          above[block + 1] = up;
          at_cut[block + 1] = level;
        }
      });
  for (std::uint64_t block = 0; block < blocks; ++block) {
    above[block + 1] += above[block];
    at_cut[block + 1] += at_cut[block];
  }
  const std::uint64_t cut_quota = k - above[blocks];

  // Each chosen vertex gets a sort key: complemented degree above, ID
  // below, so ascending keys run by descending degree with ties on the
  // original ID — the stable sort's order. Every other vertex keeps its
  // relative order after the reordered block.
  auto keys = std::make_unique_for_overwrite<std::uint64_t[]>(k);
  parallel::parallel_for(0, blocks, 1,
      [&](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t block = b; block < e; ++block) {
          const std::uint64_t begin = block * kBlock;
          const std::uint64_t end = std::min<std::uint64_t>(n, begin + kBlock);
          std::uint64_t level = at_cut[block];
          std::uint64_t chosen = above[block] + std::min(level, cut_quota);
          for (std::uint64_t v = begin; v < end; ++v) {
            const std::uint32_t d = degree(static_cast<VertexId>(v));
            if (d > cut || (d == cut && level++ < cut_quota))
              keys[chosen++] = std::uint64_t{~d} << 32 | v;
            else
              new_id[v] = static_cast<VertexId>(k + (v - chosen));
          }
        }
      });

  std::sort(keys.get(), keys.get() + k);
  parallel::parallel_for(0, k, kBlock,
      [&](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t rank = b; rank < e; ++rank)
          new_id[static_cast<VertexId>(keys[rank])] = static_cast<VertexId>(rank);
      });
  return new_id;
}

}  // namespace lotus::core
