// LOTUS relabeling (Sec. 4.3.1): hubs-first permutation that preserves the
// original order of unreordered vertices.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "lotus/config.hpp"
#include "lotus/relabel.hpp"

namespace {

namespace g = lotus::graph;
using lotus::core::create_relabeling_array;

TEST(Relabeling, IsAPermutation) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 1}));
  const auto new_id = create_relabeling_array(graph, graph.num_vertices() / 10);
  std::vector<bool> seen(graph.num_vertices(), false);
  for (auto id : new_id) {
    ASSERT_LT(id, graph.num_vertices());
    ASSERT_FALSE(seen[id]);
    seen[id] = true;
  }
}

TEST(Relabeling, ReorderedBlockHasHighestDegrees) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 2}));
  const g::VertexId k = 64;
  const auto new_id = create_relabeling_array(graph, k);

  std::uint32_t min_reordered_degree = UINT32_MAX;
  std::uint32_t max_rest_degree = 0;
  for (g::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (new_id[v] < k)
      min_reordered_degree = std::min(min_reordered_degree, graph.degree(v));
    else
      max_rest_degree = std::max(max_rest_degree, graph.degree(v));
  }
  EXPECT_GE(min_reordered_degree, max_rest_degree);
}

TEST(Relabeling, ReorderedBlockIsDegreeSorted) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 9, .edge_factor = 6, .seed = 3}));
  const g::VertexId k = 32;
  const auto new_id = create_relabeling_array(graph, k);
  std::vector<g::VertexId> old_of_new(graph.num_vertices());
  for (g::VertexId v = 0; v < graph.num_vertices(); ++v) old_of_new[new_id[v]] = v;
  for (g::VertexId rank = 1; rank < k; ++rank)
    EXPECT_GE(graph.degree(old_of_new[rank - 1]), graph.degree(old_of_new[rank]));
}

TEST(Relabeling, NonReorderedVerticesKeepRelativeOrder) {
  // Sec. 4.3.1: the tail keeps the input order, preserving initial locality.
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 4}));
  const g::VertexId k = 100;
  const auto new_id = create_relabeling_array(graph, k);
  g::VertexId prev = 0;
  bool first = true;
  for (g::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (new_id[v] < k) continue;
    if (!first) EXPECT_GT(new_id[v], prev);
    prev = new_id[v];
    first = false;
  }
}

TEST(Relabeling, ReorderCountLargerThanGraphIsClamped) {
  const auto graph = g::build_undirected(g::complete(10));
  const auto new_id = create_relabeling_array(graph, 1000);
  std::vector<bool> seen(10, false);
  for (auto id : new_id) {
    ASSERT_LT(id, 10u);
    seen[id] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool x) { return x; }));
}

// The ranking as a full stable sort by descending degree computes it: the
// reference the selection-based create_relabeling_array must reproduce.
std::vector<g::VertexId> full_stable_sort_relabeling(const g::CsrGraph& graph,
                                                     g::VertexId reorder_count) {
  const g::VertexId n = graph.num_vertices();
  reorder_count = std::min(reorder_count, n);
  std::vector<g::VertexId> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), 0);
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&graph](g::VertexId a, g::VertexId b) {
                     return graph.degree(a) > graph.degree(b);
                   });
  std::vector<g::VertexId> new_id(n);
  std::vector<bool> reordered(n, false);
  for (g::VertexId rank = 0; rank < reorder_count; ++rank) {
    new_id[by_degree[rank]] = rank;
    reordered[by_degree[rank]] = true;
  }
  g::VertexId next = reorder_count;
  for (g::VertexId v = 0; v < n; ++v)
    if (!reordered[v]) new_id[v] = next++;
  return new_id;
}

TEST(Relabeling, MatchesFullStableSortReference) {
  // Tie-heavy inputs: every vertex of a ring, of a complete graph and of an
  // edgeless graph shares one degree, a star all but one. The large ring
  // and the rmat graph span several scan blocks, so the quota of vertices
  // taken at the cut degree is split across blocks.
  const std::vector<std::pair<std::string, g::CsrGraph>> graphs = {
      {"ring", g::build_undirected(g::cycle(1000))},
      {"large_ring", g::build_undirected(g::cycle(100000))},
      {"star", g::build_undirected(g::star(500))},
      {"complete", g::build_undirected(g::complete(60))},
      {"edgeless", g::build_undirected({300, {}})},
      {"empty", g::build_undirected({0, {}})},
      {"rmat", g::build_undirected(g::rmat({.scale = 16, .edge_factor = 4, .seed = 5}))},
  };
  for (const auto& [name, graph] : graphs) {
    const g::VertexId n = graph.num_vertices();
    const g::VertexId hubs = lotus::core::LotusConfig{}.resolve_hub_count(n);
    for (const g::VertexId k : {g::VertexId{0}, g::VertexId{1}, hubs, n / 2, n})
      EXPECT_EQ(create_relabeling_array(graph, k), full_stable_sort_relabeling(graph, k))
          << name << " reorder_count=" << k;
  }
}

TEST(Relabeling, ZeroReorderCountIsIdentity) {
  const auto graph = g::build_undirected(g::path(20));
  const auto new_id = create_relabeling_array(graph, 0);
  for (g::VertexId v = 0; v < 20; ++v) EXPECT_EQ(new_id[v], v);
}

}  // namespace
