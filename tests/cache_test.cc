// Cache model tests: hits, misses, LRU victimization, write-back accounting, cache-inhibited
// accesses, plus a parameterized sweep over the geometries the simulator uses.

#include <gtest/gtest.h>

#include "src/sim/cache.h"
#include "src/sim/check.h"
#include "src/sim/rng.h"

namespace ppcmm {
namespace {

MemoryTiming TestTiming() {
  return MemoryTiming{.line_fill_cycles = 30, .single_beat_cycles = 12, .writeback_cycles = 10};
}

CacheGeometry SmallGeometry() {
  // 2 sets x 2 ways x 32-byte lines = 128 bytes: easy to reason about.
  return CacheGeometry{.size_bytes = 128, .line_bytes = 32, .associativity = 2};
}

TEST(CacheTest, GeometryDerivation) {
  const CacheGeometry g{.size_bytes = 16 * 1024, .line_bytes = 32, .associativity = 4};
  EXPECT_EQ(g.NumLines(), 512u);
  EXPECT_EQ(g.NumSets(), 128u);
}

TEST(CacheTest, MissThenHit) {
  Cache cache("d", SmallGeometry(), TestTiming());
  const Cycles miss = cache.Access(PhysAddr(0), false);
  EXPECT_EQ(miss, Cycles(30));
  const Cycles hit = cache.Access(PhysAddr(4), false);  // same line
  EXPECT_EQ(hit, Cycles(1));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_TRUE(cache.Contains(PhysAddr(0)));
}

TEST(CacheTest, DistinctLinesInSameSetCoexistUpToAssociativity) {
  Cache cache("d", SmallGeometry(), TestTiming());
  // Set stride is 64 bytes (2 sets x 32B); addresses 0 and 64 share set 0.
  cache.Access(PhysAddr(0), false);
  cache.Access(PhysAddr(64), false);
  EXPECT_TRUE(cache.Contains(PhysAddr(0)));
  EXPECT_TRUE(cache.Contains(PhysAddr(64)));
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(CacheTest, LruVictimSelection) {
  Cache cache("d", SmallGeometry(), TestTiming());
  cache.Access(PhysAddr(0), false);    // way A
  cache.Access(PhysAddr(64), false);   // way B
  cache.Access(PhysAddr(0), false);    // refresh A; B is now LRU
  cache.Access(PhysAddr(128), false);  // evicts B
  EXPECT_TRUE(cache.Contains(PhysAddr(0)));
  EXPECT_FALSE(cache.Contains(PhysAddr(64)));
  EXPECT_TRUE(cache.Contains(PhysAddr(128)));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheTest, DirtyEvictionCostsWriteback) {
  Cache cache("d", SmallGeometry(), TestTiming());
  cache.Access(PhysAddr(0), true);   // dirty line in set 0
  cache.Access(PhysAddr(64), false);
  cache.Access(PhysAddr(0), false);  // make 64 LRU
  const Cycles evict_clean = cache.Access(PhysAddr(128), false);  // evicts clean 64
  EXPECT_EQ(evict_clean, Cycles(30));
  // Now evict the dirty line 0 (LRU after the last fill refreshed 128... order: refresh 0).
  cache.Access(PhysAddr(128), false);  // refresh 128, line 0 is LRU
  const Cycles evict_dirty = cache.Access(PhysAddr(192), false);
  EXPECT_EQ(evict_dirty, Cycles(40));  // fill + writeback
  EXPECT_EQ(cache.stats().dirty_writebacks, 1u);
}

TEST(CacheTest, WriteHitMarksDirty) {
  Cache cache("d", SmallGeometry(), TestTiming());
  cache.Access(PhysAddr(0), false);  // clean fill
  cache.Access(PhysAddr(8), true);   // write hit dirties it
  cache.Access(PhysAddr(64), false);
  cache.Access(PhysAddr(64), false);
  // Evict line 0 (LRU) — must pay the writeback.
  const Cycles cost = cache.Access(PhysAddr(128), false);
  EXPECT_EQ(cost, Cycles(40));
}

TEST(CacheTest, UncachedAccessNeitherAllocatesNorLooksUp) {
  Cache cache("d", SmallGeometry(), TestTiming());
  const Cycles cost = cache.Uncached(1);
  EXPECT_EQ(cost, Cycles(12));
  EXPECT_FALSE(cache.Contains(PhysAddr(0)));
  EXPECT_EQ(cache.stats().uncached_accesses, 1u);
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_EQ(cache.ValidLineCount(), 0u);
}

TEST(CacheTest, InvalidateAllEmptiesCache) {
  Cache cache("d", SmallGeometry(), TestTiming());
  cache.Access(PhysAddr(0), true);
  cache.Access(PhysAddr(64), false);
  EXPECT_EQ(cache.ValidLineCount(), 2u);
  cache.InvalidateAll();
  EXPECT_EQ(cache.ValidLineCount(), 0u);
  EXPECT_FALSE(cache.Contains(PhysAddr(0)));
}

TEST(CacheTest, RejectsBadGeometry) {
  EXPECT_THROW(Cache("x", CacheGeometry{.size_bytes = 100, .line_bytes = 24,
                                        .associativity = 2},
                     TestTiming()),
               CheckFailure);
  EXPECT_THROW(Cache("x", CacheGeometry{.size_bytes = 128, .line_bytes = 32,
                                        .associativity = 0},
                     TestTiming()),
               CheckFailure);
}

// Property sweep across the real geometries: counters are consistent and occupancy is
// bounded for any access pattern.
class CacheGeometrySweep : public ::testing::TestWithParam<CacheGeometry> {};

TEST_P(CacheGeometrySweep, CountersConsistentUnderRandomTraffic) {
  Cache cache("sweep", GetParam(), TestTiming());
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    cache.Access(PhysAddr(static_cast<uint32_t>(rng.NextBelow(1 << 22))), rng.Chance(1, 2));
  }
  const CacheStats& stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, stats.accesses);
  EXPECT_EQ(stats.accesses, 20000u);
  EXPECT_LE(cache.ValidLineCount(), GetParam().NumLines());
  EXPECT_LE(stats.dirty_writebacks, stats.evictions);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST_P(CacheGeometrySweep, SequentialRefillIsAllMissesThenAllHits) {
  const CacheGeometry g = GetParam();
  Cache cache("sweep", g, TestTiming());
  for (uint32_t a = 0; a < g.size_bytes; a += g.line_bytes) {
    cache.Access(PhysAddr(a), false);
  }
  EXPECT_EQ(cache.stats().misses, g.NumLines());
  EXPECT_EQ(cache.ValidLineCount(), g.NumLines());
  for (uint32_t a = 0; a < g.size_bytes; a += g.line_bytes) {
    cache.Access(PhysAddr(a), false);
  }
  EXPECT_EQ(cache.stats().hits, g.NumLines());
}

INSTANTIATE_TEST_SUITE_P(
    RealGeometries, CacheGeometrySweep,
    ::testing::Values(
        CacheGeometry{.size_bytes = 8 * 1024, .line_bytes = 32, .associativity = 2},   // 603
        CacheGeometry{.size_bytes = 16 * 1024, .line_bytes = 32, .associativity = 4},  // 604
        CacheGeometry{.size_bytes = 4 * 1024, .line_bytes = 32, .associativity = 1},
        CacheGeometry{.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8}));

}  // namespace
}  // namespace ppcmm
