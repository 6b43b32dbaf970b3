// Model-based property tests: drive the hardware models with random operation streams and
// check them against the trivially-correct reference implementations the differential
// fuzzer also uses (src/verify/fuzz/reference_*.h):
//
//   Cache   vs ReferenceCache   — a map of (set -> LRU list of lines with dirty bits),
//                                 per access and through the sweep kernels
//   Tlb     vs ReferenceTlb     — a map keyed by (vsid, page index), same set/LRU discipline
//   VmaList vs ReferenceVmaModel — a std::map of page -> attributes
//
// These catch exactly the bookkeeping bugs unit tests miss: stale LRU stamps, wrong set
// indexing, split/trim edge cases.

#include <gtest/gtest.h>

#include "src/kernel/vma.h"
#include "src/mmu/tlb.h"
#include "src/sim/cache.h"
#include "src/sim/rng.h"
#include "src/verify/fuzz/reference_cache.h"
#include "src/verify/fuzz/reference_tlb.h"
#include "src/verify/fuzz/reference_vma.h"

namespace ppcmm {
namespace {

// ---- Cache vs reference ----

class CacheModelSweep : public ::testing::TestWithParam<CacheGeometry> {};

constexpr MemoryTiming kModelTiming{.line_fill_cycles = 30, .single_beat_cycles = 12,
                                    .writeback_cycles = 10};

TEST_P(CacheModelSweep, MatchesReferenceLruModel) {
  const CacheGeometry geometry = GetParam();
  Cache cache("model", geometry, kModelTiming);
  ReferenceCache reference(geometry);
  Rng rng(2024);
  uint64_t hits = 0;
  uint64_t writebacks = 0;
  for (int i = 0; i < 30000; ++i) {
    // A mix of hot lines and cold sweeps.
    const uint32_t addr =
        rng.Chance(2, 3) ? static_cast<uint32_t>(rng.NextBelow(64)) * geometry.line_bytes
                         : static_cast<uint32_t>(rng.NextBelow(1 << 22));
    const PhysAddr pa(addr);
    const bool is_write = rng.Chance(1, 2);
    const CacheAccessOutcome model = cache.AccessLine(pa, is_write);
    const ReferenceCache::Outcome expected = reference.Access(pa, is_write);
    ASSERT_EQ(model.hit, expected.hit) << "divergence at access " << i << ", pa=0x" << std::hex
                                       << addr;
    ASSERT_EQ(model.evicted_dirty, expected.evicted_dirty)
        << "write-back divergence at access " << i << ", pa=0x" << std::hex << addr;
    hits += model.hit ? 1 : 0;
    writebacks += model.evicted_dirty ? 1 : 0;
    if (i % 977 == 0) {
      ASSERT_EQ(cache.Contains(pa), reference.Contains(pa));
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(writebacks, 0u);
  EXPECT_EQ(cache.stats().hits, hits);
  EXPECT_EQ(cache.stats().dirty_writebacks, writebacks);
}

// The sweep kernels against one reference access per line: a single stream from the line
// of its start address upwards, or two interleaved streams (line i of a, then line i of b).
// Starts are unaligned, runs cross the set-index wrap, outrun the cache, and revisit lines
// an earlier sweep left resident and dirty.
TEST_P(CacheModelSweep, SweepsMatchReferenceLruModel) {
  const CacheGeometry geometry = GetParam();
  Cache cache("model", geometry, kModelTiming);
  ReferenceCache reference(geometry);
  Rng rng(77);
  const uint32_t line = geometry.line_bytes;
  CacheStats expected;
  const auto reference_access = [&](PhysAddr pa, bool is_write) {
    const ReferenceCache::Outcome outcome = reference.Access(pa, is_write);
    ++(outcome.hit ? expected.hits : expected.misses);
    expected.dirty_writebacks += outcome.evicted_dirty ? 1 : 0;
  };
  for (int i = 0; i < 3000; ++i) {
    // Addresses within 64 KB keep lines coming back, resident and dirty.
    const PhysAddr a(static_cast<uint32_t>(rng.NextBelow(64 * 1024)));
    const PhysAddr b(static_cast<uint32_t>(rng.NextBelow(64 * 1024)));
    const bool a_write = rng.Chance(1, 2);
    const bool b_write = rng.Chance(1, 2);
    const auto lines = static_cast<uint32_t>(rng.NextBelow(3 * geometry.NumLines() / 2));
    const CacheStats before = cache.stats();
    const CacheStats expected_before = expected;
    uint64_t cycles = 0;
    if (rng.Chance(1, 2)) {
      cycles = cache.SweepLines(a, lines, a_write).value;
      for (uint32_t l = 0; l < lines; ++l) {
        reference_access(a + l * line, a_write);
      }
    } else {
      cycles = cache.SweepLinePairs(a, a_write, b, b_write, lines).value;
      for (uint32_t l = 0; l < lines; ++l) {
        reference_access(a + l * line, a_write);
        reference_access(b + l * line, b_write);
      }
    }
    const uint64_t hits = expected.hits - expected_before.hits;
    const uint64_t misses = expected.misses - expected_before.misses;
    const uint64_t writebacks = expected.dirty_writebacks - expected_before.dirty_writebacks;
    ASSERT_EQ(cache.stats().hits - before.hits, hits) << "sweep " << i;
    ASSERT_EQ(cache.stats().misses - before.misses, misses) << "sweep " << i;
    ASSERT_EQ(cache.stats().dirty_writebacks - before.dirty_writebacks, writebacks)
        << "sweep " << i;
    ASSERT_EQ(cycles, hits + misses * kModelTiming.line_fill_cycles +
                          writebacks * kModelTiming.writeback_cycles)
        << "sweep " << i;
    for (int probe = 0; probe < 8; ++probe) {
      const PhysAddr pa(static_cast<uint32_t>(rng.NextBelow(64 * 1024)));
      ASSERT_EQ(cache.Contains(pa), reference.Contains(pa)) << "after sweep " << i;
    }
  }
  EXPECT_GT(expected.hits, 0u);
  EXPECT_GT(expected.dirty_writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelSweep,
    ::testing::Values(
        CacheGeometry{.size_bytes = 8 * 1024, .line_bytes = 32, .associativity = 2},
        CacheGeometry{.size_bytes = 16 * 1024, .line_bytes = 32, .associativity = 4},
        CacheGeometry{.size_bytes = 4 * 1024, .line_bytes = 64, .associativity = 1},
        CacheGeometry{.size_bytes = 12 * 1024, .line_bytes = 32, .associativity = 3}));

// ---- TLB vs reference ----

TEST(TlbModelTest, MatchesReferenceUnderRandomTraffic) {
  Tlb tlb("model", 64, 2);
  ReferenceTlb reference(64, 2);
  Rng rng(7);
  for (int i = 0; i < 30000; ++i) {
    const uint32_t vsid = static_cast<uint32_t>(rng.NextBelow(8));
    const uint32_t page = static_cast<uint32_t>(rng.NextBelow(256));
    switch (rng.NextBelow(3)) {
      case 0: {
        const bool model = tlb.Lookup(VirtPage{Vsid(vsid), page}).has_value();
        const bool ref = reference.Lookup(vsid, page);
        ASSERT_EQ(model, ref) << "lookup divergence at step " << i;
        break;
      }
      case 1:
        tlb.Insert(TlbEntry{.valid = true,
                            .vsid = Vsid(vsid),
                            .page_index = page,
                            .frame = 1,
                            .cache_inhibited = false,
                            .writable = true,
                            .changed = false,
                            .is_kernel = false,
                            .last_used = 0});
        reference.Insert(vsid, page);
        break;
      case 2:
        tlb.InvalidatePage(page);
        reference.InvalidatePage(page);
        break;
    }
  }
}

// ---- VmaList vs reference ----

TEST(VmaModelTest, MatchesPageMapUnderRandomInsertRemove) {
  VmaList vmas;
  ReferenceVmaModel reference;
  Rng rng(99);
  for (int i = 0; i < 4000; ++i) {
    const uint32_t start = static_cast<uint32_t>(rng.NextBelow(512));
    const uint32_t count = 1 + static_cast<uint32_t>(rng.NextBelow(24));
    if (rng.Chance(1, 2)) {
      // Insert only when the model says the range is free; verify it agrees.
      const bool free = reference.RangeIsFree(start, count);
      ASSERT_EQ(vmas.RangeIsFree(start, count), free) << "RangeIsFree divergence";
      if (free) {
        vmas.Insert(Vma{.start_page = start, .end_page = start + count, .writable = true,
                        .backing = VmaBacking::kAnonymous});
        reference.Insert(start, count, RefVmaAttr{.writable = true});
      }
    } else {
      const uint32_t removed_reference = reference.Remove(start, count);
      const uint32_t removed_model = vmas.Remove(start, count);
      ASSERT_EQ(removed_model, removed_reference) << "Remove divergence at step " << i;
    }
    if (i % 251 == 0) {
      // Spot-check membership and totals.
      for (uint32_t p = 0; p < 560; p += 7) {
        ASSERT_EQ(vmas.Find(p).has_value(), reference.Find(p).has_value()) << "page " << p;
      }
      ASSERT_EQ(vmas.TotalPages(), reference.TotalPages());
    }
  }
}

}  // namespace
}  // namespace ppcmm
