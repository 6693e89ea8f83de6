// Graph algorithms substrate: BFS, connected components, k-truss.
#include <gtest/gtest.h>

#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/components.hpp"
#include "algorithms/ktruss.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace {

namespace g = lotus::graph;
namespace alg = lotus::algorithms;

// ---------- BFS ----------

TEST(Bfs, PathGraphDistances) {
  const auto graph = g::build_undirected(g::path(10));
  const auto r = alg::bfs(graph, 0);
  for (g::VertexId v = 0; v < 10; ++v) EXPECT_EQ(r.distance[v], v);
  EXPECT_EQ(r.reached, 10u);
}

TEST(Bfs, DisconnectedComponentUnreached) {
  const auto graph = g::build_undirected({6, {{0, 1}, {1, 2}, {4, 5}}});
  const auto r = alg::bfs(graph, 0);
  EXPECT_EQ(r.reached, 3u);
  EXPECT_EQ(r.distance[3], alg::kUnreached);
  EXPECT_EQ(r.distance[4], alg::kUnreached);
}

TEST(Bfs, StarIsOneHop) {
  const auto graph = g::build_undirected(g::star(100));
  const auto r = alg::bfs(graph, 0);
  for (g::VertexId v = 1; v < 100; ++v) EXPECT_EQ(r.distance[v], 1u);
}

TEST(Bfs, MatchesSerialReferenceOnRandomGraph) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 11, .edge_factor = 8, .seed = 91}));
  const auto r = alg::bfs(graph, 0);

  // Serial reference BFS.
  std::vector<std::uint32_t> reference(graph.num_vertices(), alg::kUnreached);
  std::vector<g::VertexId> queue = {0};
  reference[0] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto v = queue[head];
    for (g::VertexId u : graph.neighbors(v))
      if (reference[u] == alg::kUnreached) {
        reference[u] = reference[v] + 1;
        queue.push_back(u);
      }
  }
  EXPECT_EQ(r.distance, reference);
  // A low-diameter power-law graph must trigger the bottom-up switch.
  EXPECT_GT(r.bottom_up_sweeps, 0u);
}

// ---------- connected components ----------

TEST(Components, CountsComponents) {
  const auto graph = g::build_undirected({9, {{0, 1}, {1, 2}, {4, 5}, {7, 8}}});
  const auto r = alg::connected_components(graph);
  EXPECT_EQ(r.num_components, 5u);  // {0,1,2} {3} {4,5} {6} {7,8}
  EXPECT_EQ(r.component[0], r.component[2]);
  EXPECT_NE(r.component[0], r.component[4]);
  EXPECT_EQ(r.component[3], 3u);
}

TEST(Components, SingleComponentOnConnectedGraph) {
  const auto graph = g::build_undirected(g::wheel(50));
  const auto r = alg::connected_components(graph);
  EXPECT_EQ(r.num_components, 1u);
  for (auto c : r.component) EXPECT_EQ(c, 0u);
}

TEST(Components, AgreesWithBfsReachability) {
  const auto graph =
      g::build_undirected(g::erdos_renyi(4000, 1.2, 92));  // sub-critical: many comps
  const auto cc = alg::connected_components(graph);
  const auto reach = alg::bfs(graph, 0);
  for (g::VertexId v = 0; v < graph.num_vertices(); ++v) {
    const bool same_component = cc.component[v] == cc.component[0];
    const bool reached = reach.distance[v] != alg::kUnreached;
    EXPECT_EQ(same_component, reached) << v;
  }
}

// ---------- k-truss ----------

TEST(KTruss, CompleteGraphIsOneTruss) {
  // Every edge of K_6 has support 4 -> trussness 6 for all edges.
  const auto graph = g::build_undirected(g::complete(6));
  const auto r = alg::ktruss_decomposition(graph);
  EXPECT_EQ(r.max_k, 6u);
  for (auto t : r.trussness) EXPECT_EQ(t, 6u);
  EXPECT_EQ(r.edges_in_max_truss, 15u);
}

TEST(KTruss, TriangleFreeGraphIsTwoTruss) {
  const auto graph = g::build_undirected(g::grid(5, 5));
  const auto r = alg::ktruss_decomposition(graph);
  EXPECT_EQ(r.max_k, 2u);
  for (auto t : r.trussness) EXPECT_EQ(t, 2u);
}

TEST(KTruss, CliqueWithTailSeparates) {
  // K_5 plus a pendant path: the clique edges are 5-truss, the tail 2-truss.
  g::EdgeList el = g::complete(5);
  el.num_vertices = 7;
  el.edges.push_back({4, 5});
  el.edges.push_back({5, 6});
  const auto graph = g::build_undirected(el);
  const auto r = alg::ktruss_decomposition(graph);
  EXPECT_EQ(r.max_k, 5u);
  EXPECT_EQ(r.edges_in_max_truss, 10u);  // the K_5 edges
  std::uint64_t two_truss = 0;
  for (auto t : r.trussness) two_truss += t == 2 ? 1u : 0u;
  EXPECT_EQ(two_truss, 2u);  // the tail edges
}

TEST(KTruss, WheelIsThreeTruss) {
  // Every wheel edge sits in >= 1 triangle but peels at support 1.
  const auto graph = g::build_undirected(g::wheel(8));
  const auto r = alg::ktruss_decomposition(graph);
  EXPECT_EQ(r.max_k, 3u);
}

TEST(KTruss, TrussnessUpperBoundsFollowSupports) {
  const auto graph = g::build_undirected(g::holme_kim(
      {.num_vertices = 500, .edges_per_vertex = 5, .p_triad = 0.7, .seed = 94}));
  const auto r = alg::ktruss_decomposition(graph);
  EXPECT_GE(r.max_k, 3u);  // triad formation guarantees triangles
  for (auto t : r.trussness) EXPECT_GE(t, 2u);
}

}  // namespace
