// Baseline triangle-counting algorithms.
//
// These reimplement, from scratch, the comparator kernels of the paper's
// evaluation (Sec. 5.1.4) plus the classical algorithms of Sec. 2.2:
//   * forward              — Alg. 1 (Forward with degree ordering) under an
//                            intersection strategy (kernels/forward.hpp):
//                            GAP-style merge, the galloping search of [31],
//                            the dispatched SIMD merge, Schank & Wagner's
//                            hashed set, Latapy's bitmap, or the
//                            sparse-vs-dense hybrid.
//   * edge_parallel_forward— GBBS-style: parallelism over oriented edges
//                            rather than vertices (parallelized intersection).
//   * edge_iterator        — GraphGrind-style iterator over full lists.
//   * node_iterator        — classical pair-enumeration algorithm.
//   * blocked_tc           — BBTC-style block-based traversal.
//   * brute_force          — O(V·d_max^2) oracle used only by tests.
//
// Functions taking a `CsrGraph` run end-to-end (preprocessing included) and
// report phase timings; `*_prepared` variants consume an already oriented
// graph for kernel-only comparisons.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"
#include "kernels/forward.hpp"

namespace lotus::baselines {

using kernels::null_probe;

/// End-to-end result: triangle count plus the two phases the paper times.
struct TcResult {
  std::uint64_t triangles = 0;
  double preprocess_s = 0.0;
  double count_s = 0.0;

  [[nodiscard]] double total_s() const { return preprocess_s + count_s; }
};

// --- Kernel-only entry points (prepared, degree-ordered oriented input).
std::uint64_t forward_prepared(const graph::OrientedCsr& oriented,
                               const kernels::IntersectStrategy& strategy);
/// forward_prepared under kernels::strategy::kBitmap.
std::uint64_t forward_bitmap_prepared(const graph::OrientedCsr& oriented);
std::uint64_t edge_parallel_forward_prepared(const graph::OrientedCsr& oriented);
std::uint64_t blocked_tc_prepared(const graph::OrientedCsr& oriented,
                                  graph::VertexId block_size);

// --- End-to-end entry points (symmetric input; includes degree ordering).
TcResult forward(const graph::CsrGraph& graph,
                 const kernels::IntersectStrategy& strategy);
/// forward under kernels::strategy::kMerge (gap-forward).
TcResult forward_merge(const graph::CsrGraph& graph);
TcResult edge_parallel_forward(const graph::CsrGraph& graph);
TcResult edge_iterator(const graph::CsrGraph& graph);
TcResult node_iterator(const graph::CsrGraph& graph);
TcResult blocked_tc(const graph::CsrGraph& graph,
                    graph::VertexId block_size = 1 << 14);

/// Reference oracle: correct for any simple symmetric graph; quadratic in
/// the maximum degree, so tests only.
std::uint64_t brute_force(const graph::CsrGraph& graph);

}  // namespace lotus::baselines
