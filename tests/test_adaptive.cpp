// Adaptive dispatch (Sec. 5.5): tc::detail::resolve turns `adaptive` into
// lotus on skewed graphs and gap-forward on flat ones, once per query; the
// query counts correctly either way and still reports as `adaptive`.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "baselines/tc_baselines.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "lotus/adaptive.hpp"
#include "tc/api.hpp"

namespace {

namespace g = lotus::graph;
namespace tc = lotus::tc;
using lotus::core::should_use_lotus;

tc::QueryResult query_adaptive(const g::CsrGraph& graph,
                               const tc::QueryOptions& options = {}) {
  auto outcome = tc::query(tc::Algorithm::kAdaptive, graph, options);
  EXPECT_TRUE(outcome.ok()) << outcome.status().to_string();
  tc::QueryResult result = outcome.take();
  EXPECT_TRUE(result.ok()) << result.status.to_string();
  EXPECT_EQ(result.algorithm, tc::Algorithm::kAdaptive);
  return result;
}

/// Value of a note key anywhere in the span tree ("" if absent).
std::string note(const lotus::obs::PhaseTracer& trace, std::string_view key) {
  for (const auto& span : trace.spans())
    for (const auto& [k, v] : span.notes)
      if (k == key) return v;
  return {};
}

g::CsrGraph skewed_graph(int scale = 13, int edge_factor = 16,
                         std::uint64_t seed = 1) {
  return g::build_undirected(g::rmat(
      {.scale = scale, .edge_factor = edge_factor, .seed = seed}));
}

g::CsrGraph flat_graph() {
  return g::build_undirected(g::erdos_renyi(1 << 13, 12.0, 2));
}

TEST(Adaptive, SkewedGraphPicksLotus) {
  const auto graph = skewed_graph();
  EXPECT_TRUE(should_use_lotus(graph));
  EXPECT_EQ(tc::detail::resolve(tc::Algorithm::kAdaptive, graph),
            tc::Algorithm::kLotus);
  EXPECT_EQ(query_adaptive(graph).result.triangles,
            lotus::baselines::brute_force(graph));
}

TEST(Adaptive, FlatGraphPicksForward) {
  const auto graph = flat_graph();
  EXPECT_FALSE(should_use_lotus(graph));
  EXPECT_EQ(tc::detail::resolve(tc::Algorithm::kAdaptive, graph),
            tc::Algorithm::kForwardMerge);
  EXPECT_EQ(query_adaptive(graph).result.triangles,
            lotus::baselines::brute_force(graph));
}

TEST(Adaptive, LatticePicksForward) {
  const auto graph = g::build_undirected(g::watts_strogatz(
      {.num_vertices = 1 << 13, .ring_degree = 6, .rewire_prob = 0.05, .seed = 3}));
  EXPECT_EQ(tc::detail::resolve(tc::Algorithm::kAdaptive, graph),
            tc::Algorithm::kForwardMerge);
  EXPECT_EQ(query_adaptive(graph).result.triangles,
            lotus::baselines::brute_force(graph));
}

TEST(Adaptive, BothPathsReportTimings) {
  for (const auto& graph : {skewed_graph(11, 8, 4), flat_graph()}) {
    const tc::RunResult r = query_adaptive(graph).result;
    EXPECT_GE(r.preprocess_s, 0.0);
    EXPECT_GE(r.count_s, 0.0);
  }
}

TEST(Adaptive, ResolveLeavesEveryOtherAlgorithmUnchanged) {
  const auto graph = skewed_graph(9, 8, 5);
  for (const tc::Algorithm algorithm : tc::all_algorithms())
    if (algorithm != tc::Algorithm::kAdaptive)
      EXPECT_EQ(tc::detail::resolve(algorithm, graph), algorithm)
          << tc::name(algorithm);
}

// A profiled adaptive query runs the resolved algorithm's own path: on a
// skewed graph the full LOTUS span tree, with simulated events replayed
// over the artifact the query counted on.
TEST(Adaptive, ProfiledSkewedQueryCarriesLotusPhaseSpans) {
  const auto graph = skewed_graph(10, 8, 9);
  tc::QueryOptions options;
  options.profile = true;
  options.events = lotus::obs::EventSource::kSimulated;
  const tc::QueryResult r = query_adaptive(graph, options);
  ASSERT_TRUE(r.profile.has_value());
  const tc::ProfileReport& report = *r.profile;
  EXPECT_EQ(report.algorithm, tc::Algorithm::kAdaptive);
  EXPECT_EQ(report.result.triangles, lotus::baselines::brute_force(graph));
  EXPECT_EQ(note(report.trace, "chosen_algorithm"), "lotus");
  for (const char* span : {"preprocess", "relabel", "partition", "serialize",
                           "count", "hhh_hhn", "hnn", "nnn"})
    EXPECT_NE(report.trace.find(span), nullptr) << span;
  for (const char* span : {"hhh_hhn", "hnn", "nnn"})
    EXPECT_TRUE(report.trace.find(span)->has_events) << span;
  EXPECT_EQ(report.event_note.find("mismatch"), std::string::npos)
      << report.event_note;
}

TEST(Adaptive, ProfiledFlatQueryNotesForward) {
  const auto graph = flat_graph();
  tc::QueryOptions options;
  options.profile = true;
  options.events = lotus::obs::EventSource::kSimulated;
  const tc::QueryResult r = query_adaptive(graph, options);
  ASSERT_TRUE(r.profile.has_value());
  const tc::ProfileReport& report = *r.profile;
  EXPECT_EQ(note(report.trace, "chosen_algorithm"), "forward");
  EXPECT_EQ(report.trace.find("hhh_hhn"), nullptr);
  ASSERT_NE(report.trace.find("count"), nullptr);
  EXPECT_TRUE(report.trace.find("count")->has_events);
  EXPECT_TRUE(report.events.any());
  EXPECT_EQ(report.event_note.find("mismatch"), std::string::npos)
      << report.event_note;
}

}  // namespace
