#include "baselines/tc_baselines.hpp"

#include <algorithm>

#include "graph/builder.hpp"
#include "graph/degree_order.hpp"
#include "kernels/intersect.hpp"
#include "parallel/parallel_for.hpp"
#include "util/timer.hpp"

namespace lotus::baselines {

using graph::CsrGraph;
using graph::OrientedCsr;
using graph::VertexId;
using kernels::intersect_merge;

namespace {

/// Wrap a prepared kernel with the shared degree-ordering preprocessing.
template <typename Kernel>
TcResult end_to_end(const CsrGraph& g, Kernel&& kernel) {
  util::Timer timer;
  const OrientedCsr oriented = graph::degree_ordered_oriented(g);
  TcResult result;
  result.preprocess_s = timer.elapsed_s();
  timer.reset();
  result.triangles = kernel(oriented);
  result.count_s = timer.elapsed_s();
  return result;
}

}  // namespace

std::uint64_t forward_prepared(const OrientedCsr& oriented,
                               const kernels::IntersectStrategy& strategy) {
  return kernels::forward_count(
      oriented.num_vertices(),
      [&](VertexId v) { return oriented.neighbors(v); }, strategy);
}

std::uint64_t forward_bitmap_prepared(const OrientedCsr& oriented) {
  return forward_prepared(oriented, kernels::strategy::kBitmap);
}

std::uint64_t edge_parallel_forward_prepared(const OrientedCsr& oriented) {
  // GBBS-style: the flat loop over oriented edges exposes the intersection
  // work of heavy vertices to many threads instead of one.
  const std::uint64_t m = oriented.num_edges();
  const auto& offsets = oriented.offsets();
  const auto& nbrs = oriented.neighbor_array();
  return parallel::parallel_reduce_add<std::uint64_t>(
      0, m, 2048, [&](std::uint64_t edge_index) {
        // Source vertex of this CSR slot, found by binary search on offsets.
        const auto it = std::upper_bound(offsets.begin(), offsets.end(), edge_index);
        const auto v = static_cast<VertexId>(it - offsets.begin() - 1);
        const VertexId u = nbrs[edge_index];
        return intersect_merge<VertexId>(oriented.neighbors(v),
                                         oriented.neighbors(u));
      });
}

std::uint64_t blocked_tc_prepared(const OrientedCsr& oriented,
                                  VertexId block_size) {
  // BBTC-style schedule: vertices are grouped into ranges and each
  // (source-block, neighbour-block) pair is one task, so the randomly
  // accessed second lists of a task fall inside one block.
  const VertexId n = oriented.num_vertices();
  if (block_size == 0) block_size = 1;
  const VertexId num_blocks = (n + block_size - 1) / block_size;
  const std::uint64_t tasks = static_cast<std::uint64_t>(num_blocks) * num_blocks;
  return parallel::parallel_reduce_add<std::uint64_t>(
      0, tasks, 1, [&](std::uint64_t task) {
        const auto bv = static_cast<VertexId>(task / num_blocks);
        const auto bu = static_cast<VertexId>(task % num_blocks);
        if (bu > bv) return std::uint64_t{0};  // u < v, so bu <= bv only
        const VertexId v_begin = bv * block_size;
        const VertexId v_end = std::min<VertexId>(n, v_begin + block_size);
        const VertexId u_begin = bu * block_size;
        const VertexId u_end = std::min<VertexId>(n, u_begin + block_size);
        std::uint64_t local = 0;
        for (VertexId v = v_begin; v < v_end; ++v) {
          auto nv = oriented.neighbors(v);
          const auto first = std::lower_bound(nv.begin(), nv.end(), u_begin);
          for (auto it = first; it != nv.end() && *it < u_end; ++it)
            local += intersect_merge<VertexId>(nv, oriented.neighbors(*it));
        }
        return local;
      });
}

TcResult forward(const CsrGraph& g, const kernels::IntersectStrategy& strategy) {
  return end_to_end(g, [&](const OrientedCsr& oriented) {
    return forward_prepared(oriented, strategy);
  });
}
TcResult forward_merge(const CsrGraph& g) {
  return forward(g, kernels::strategy::kMerge);
}
TcResult edge_parallel_forward(const CsrGraph& g) {
  return end_to_end(g, edge_parallel_forward_prepared);
}
TcResult blocked_tc(const CsrGraph& g, VertexId block_size) {
  return end_to_end(g, [block_size](const OrientedCsr& oriented) {
    return blocked_tc_prepared(oriented, block_size);
  });
}

TcResult edge_iterator(const CsrGraph& g) {
  // Intersects the full neighbour lists of both endpoints of every
  // undirected edge; each triangle is found once per edge, i.e. 3 times.
  util::Timer timer;
  const OrientedCsr oriented = graph::orient_by_id(g);
  TcResult result;
  result.preprocess_s = timer.elapsed_s();
  timer.reset();
  const VertexId n = g.num_vertices();
  const std::uint64_t tripled = parallel::parallel_reduce_add<std::uint64_t>(
      0, n, 64, [&](std::uint64_t vi) {
        const auto v = static_cast<VertexId>(vi);
        std::uint64_t local = 0;
        for (VertexId u : oriented.neighbors(v))
          local += intersect_merge<VertexId>(g.neighbors(v), g.neighbors(u));
        return local;
      });
  result.triangles = tripled / 3;
  result.count_s = timer.elapsed_s();
  return result;
}

TcResult node_iterator(const CsrGraph& g) {
  // For every vertex, tests each pair of neighbours for adjacency (via
  // binary search); every triangle is seen from each corner, i.e. 3 times.
  util::Timer timer;
  TcResult result;
  result.preprocess_s = timer.elapsed_s();
  timer.reset();
  const VertexId n = g.num_vertices();
  const std::uint64_t tripled = parallel::parallel_reduce_add<std::uint64_t>(
      0, n, 16, [&](std::uint64_t vi) {
        const auto v = static_cast<VertexId>(vi);
        auto nv = g.neighbors(v);
        std::uint64_t local = 0;
        for (std::size_t i = 0; i < nv.size(); ++i) {
          auto nu = g.neighbors(nv[i]);
          for (std::size_t j = i + 1; j < nv.size(); ++j)
            local += std::binary_search(nu.begin(), nu.end(), nv[j]) ? 1u : 0u;
        }
        return local;
      });
  result.triangles = tripled / 3;
  result.count_s = timer.elapsed_s();
  return result;
}

std::uint64_t brute_force(const CsrGraph& g) {
  const VertexId n = g.num_vertices();
  std::uint64_t total = 0;
  for (VertexId v = 0; v < n; ++v) {
    auto nv = g.neighbors(v);
    for (std::size_t i = 0; i < nv.size(); ++i) {
      if (nv[i] >= v) break;  // enforce w < u < v: count each triangle once
      for (std::size_t j = i + 1; j < nv.size(); ++j) {
        if (nv[j] >= v) break;
        auto nu = g.neighbors(nv[j]);
        total += std::binary_search(nu.begin(), nu.end(), nv[i]) ? 1u : 0u;
      }
    }
  }
  return total;
}

}  // namespace lotus::baselines
