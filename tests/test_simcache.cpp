// Hardware models: set-associative LRU cache, TLB, gshare predictor, and
// the composite PerfModel probe.
#include <gtest/gtest.h>

#include <algorithm>

#include "simcache/branch_predictor.hpp"
#include "util/prng.hpp"
#include "simcache/cache_model.hpp"
#include "simcache/machines.hpp"
#include "simcache/perf_model.hpp"

namespace {

using namespace lotus::simcache;

CacheConfig tiny_cache() { return {"test", 1024, 64, 2}; }  // 8 sets x 2 ways

TEST(CacheModel, ColdMissThenHit) {
  CacheModel cache(tiny_cache());
  EXPECT_FALSE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x1004));  // same line
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(CacheModel, DistinctLinesMissSeparately) {
  CacheModel cache(tiny_cache());
  cache.access(0x0);
  cache.access(0x40);
  cache.access(0x80);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(CacheModel, LruEvictionWithinSet) {
  // 2-way set: three conflicting lines evict the least recently used.
  CacheModel cache(tiny_cache());
  const std::uint64_t set_stride = 8 * 64;  // 8 sets x 64B lines
  cache.access(0 * set_stride);             // A -> miss
  cache.access(1 * set_stride);             // B -> miss
  cache.access(0 * set_stride);             // A -> hit (B becomes LRU)
  cache.access(2 * set_stride);             // C -> miss, evicts B
  EXPECT_TRUE(cache.access(0 * set_stride));   // A survived
  EXPECT_FALSE(cache.access(1 * set_stride));  // B was evicted
}

TEST(CacheModel, WorkingSetLargerThanCacheThrashes) {
  CacheModel cache(tiny_cache());  // 1 KB
  for (int round = 0; round < 3; ++round)
    for (std::uint64_t addr = 0; addr < 8 * 1024; addr += 64) cache.access(addr);
  // 8 KB streamed working set in a 1 KB cache: essentially all misses.
  EXPECT_GT(cache.misses(), cache.hits());
}

TEST(CacheModel, SmallWorkingSetFitsAfterWarmup) {
  CacheModel cache(tiny_cache());
  for (int round = 0; round < 10; ++round)
    for (std::uint64_t addr = 0; addr < 512; addr += 64) cache.access(addr);
  EXPECT_EQ(cache.misses(), 8u);  // cold misses only
}

TEST(CacheModel, RejectsBadGeometry) {
  EXPECT_THROW(CacheModel({"bad", 1000, 64, 2}), std::invalid_argument);
  EXPECT_THROW(CacheModel({"bad", 1024, 60, 2}), std::invalid_argument);
}

TEST(TlbModel, PageGranularity) {
  TlbModel tlb({4, 4096, 4});
  tlb.access(0);
  EXPECT_TRUE(tlb.access(4095));   // same page
  EXPECT_FALSE(tlb.access(4096));  // next page
}

TEST(Gshare, LearnsABiasedBranch) {
  GsharePredictor predictor(8);
  for (int i = 0; i < 1000; ++i) predictor.record(7, true);
  // After warmup, an always-taken branch is nearly always predicted.
  EXPECT_LT(predictor.mispredicts(), 10u);
  EXPECT_EQ(predictor.branches(), 1000u);
}

TEST(Gshare, RandomBranchMispredictsHalf) {
  GsharePredictor predictor(8);
  std::uint64_t state = 42;
  for (int i = 0; i < 20000; ++i)
    predictor.record(3, lotus::util::splitmix64(state) & 1);
  const double rate = static_cast<double>(predictor.mispredicts()) /
                      static_cast<double>(predictor.branches());
  EXPECT_NEAR(rate, 0.5, 0.05);
}

TEST(Gshare, AlternatingPatternIsLearnable) {
  GsharePredictor predictor(8);
  for (int i = 0; i < 2000; ++i) predictor.record(1, i % 2 == 0);
  // History-based prediction captures strict alternation.
  EXPECT_LT(predictor.mispredicts(), 100u);
}

TEST(PerfModel, CountsAllEventKinds) {
  PerfModel model(skylakex().scaled(64));
  int x = 0;
  model.read(&x, 4);
  model.read(&x, 4);
  model.branch(0, true);
  model.op(3);
  const auto c = model.counters();
  EXPECT_EQ(c.loads, 2u);
  EXPECT_EQ(c.branches, 1u);
  EXPECT_EQ(c.ops, 3u);
  EXPECT_EQ(c.instructions(), 2u + 1u + 3u);
  EXPECT_EQ(c.l1_misses, 1u);  // second read hits L1
}

TEST(Machines, ScaledKeepsGeometryValid) {
  for (const auto& machine : {skylakex(), haswell(), epyc()}) {
    for (std::uint32_t factor : {1u, 4u, 16u, 1024u}) {
      const auto scaled = machine.scaled(factor);
      // Must still construct valid caches.
      PerfModel model(scaled);
      int x = 0;
      model.read(&x, 4);
      EXPECT_EQ(model.counters().loads, 1u);
      // The dTLB reach shrinks by the same factor, down to one page.
      const std::uint64_t reach =
          std::uint64_t{machine.dtlb.entries} * machine.dtlb.page_bytes;
      EXPECT_EQ(std::uint64_t{scaled.dtlb.entries} * scaled.dtlb.page_bytes,
                std::max<std::uint64_t>(machine.dtlb.page_bytes, reach / factor))
          << machine.name << " /" << factor;
      EXPECT_EQ(scaled.dtlb.entries % scaled.dtlb.associativity, 0u);
    }
  }
}

TEST(Machines, Table3Capacities) {
  EXPECT_EQ(skylakex().l2.size_bytes, 1024u * 1024);
  EXPECT_EQ(haswell().l2.size_bytes, 256u * 1024);
  EXPECT_EQ(epyc().l2.size_bytes, 512u * 1024);
}

}  // namespace
