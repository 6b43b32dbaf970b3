// Model-based property tests: drive the hardware models with random operation streams and
// check them against the trivially-correct reference implementations the differential
// fuzzer also uses (src/verify/fuzz/reference_*.h):
//
//   Cache   vs ReferenceCache   — a map of (set -> LRU list of lines with dirty bits),
//                                 per access and through the sweep kernel, across the
//                                 renumbering of the LRU stamps
//   Tlb     vs ReferenceTlb     — a map keyed by (vsid, page index), same set/LRU discipline
//   VmaList vs ReferenceVmaModel — a std::map of page -> attributes
//
// These catch exactly the bookkeeping bugs unit tests miss: stale LRU stamps, wrong set
// indexing, split/trim edge cases.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

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

// What one Cache::Access did, read off its cycles: 1 is a hit, a line fill a clean miss,
// and a fill plus a write-back a miss that displaced a dirty line.
struct ModelOutcome {
  bool hit = false;
  bool evicted_dirty = false;
};

ModelOutcome Classify(Cycles cycles) {
  const uint64_t fill = kModelTiming.line_fill_cycles;
  const uint64_t writeback = kModelTiming.writeback_cycles;
  EXPECT_TRUE(cycles.value == 1 || cycles.value == fill || cycles.value == fill + writeback)
      << cycles.value << " cycles";
  return ModelOutcome{.hit = cycles.value == 1, .evicted_dirty = cycles.value == fill + writeback};
}

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
    const ModelOutcome model = Classify(cache.Access(pa, is_write));
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

// Reference-side bookkeeping for the tests below: the counters and cycles a cache must
// report after the same accesses, one reference access per line access.
struct ReferenceRun {
  explicit ReferenceRun(const CacheGeometry& geometry) : cache(geometry) {}

  // `repeat` back-to-back accesses to the line of `pa`: only the first reaches the
  // reference, the rest are hits.
  ReferenceCache::Outcome Access(PhysAddr pa, bool is_write, uint64_t repeat = 1) {
    const ReferenceCache::Outcome outcome = cache.Access(pa, is_write);
    stats.accesses += repeat;
    stats.hits += repeat - 1 + (outcome.hit ? 1 : 0);
    stats.misses += outcome.hit ? 0 : 1;
    stats.dirty_writebacks += outcome.evicted_dirty ? 1 : 0;
    cycles += repeat - 1 +
              (outcome.hit ? 1
                           : kModelTiming.line_fill_cycles +
                                 (outcome.evicted_dirty ? kModelTiming.writeback_cycles : 0));
    return outcome;
  }

  ReferenceCache cache;
  CacheStats stats;
  uint64_t cycles = 0;
};

// The counters the reference predicts, and residency of every line in `probes`.
void ExpectMatchesReference(const Cache& cache, const ReferenceRun& reference,
                            const std::vector<PhysAddr>& probes) {
  ASSERT_EQ(cache.stats().accesses, reference.stats.accesses);
  ASSERT_EQ(cache.stats().hits, reference.stats.hits);
  ASSERT_EQ(cache.stats().misses, reference.stats.misses);
  ASSERT_EQ(cache.stats().dirty_writebacks, reference.stats.dirty_writebacks);
  for (const PhysAddr pa : probes) {
    ASSERT_EQ(cache.Contains(pa), reference.cache.Contains(pa)) << "pa=0x" << std::hex
                                                                << pa.value;
  }
}

// The sweep kernels against one reference access per line: a single stream from the line
// of its start address upwards (a line-stride Cache::Run), or two interleaved streams (line
// i of a, then line i of b).
// Starts are unaligned, runs cross the set-index wrap, outrun the cache, and revisit lines
// an earlier sweep left resident and dirty.
TEST_P(CacheModelSweep, SweepsMatchReferenceLruModel) {
  const CacheGeometry geometry = GetParam();
  Cache cache("model", geometry, kModelTiming);
  ReferenceRun reference(geometry);
  Rng rng(77);
  const uint32_t line = geometry.line_bytes;
  for (int i = 0; i < 3000; ++i) {
    SCOPED_TRACE("sweep " + std::to_string(i));
    // Addresses within 64 KB keep lines coming back, resident and dirty.
    const PhysAddr a(static_cast<uint32_t>(rng.NextBelow(64 * 1024)));
    const PhysAddr b(static_cast<uint32_t>(rng.NextBelow(64 * 1024)));
    const bool a_write = rng.Chance(1, 2);
    const bool b_write = rng.Chance(1, 2);
    const auto lines = static_cast<uint32_t>(rng.NextBelow(3 * geometry.NumLines() / 2));
    const uint64_t cycles_before = reference.cycles;
    uint64_t cycles = 0;
    if (rng.Chance(1, 2)) {
      cycles = cache.Run(a, line, lines, a_write).value;
      for (uint32_t l = 0; l < lines; ++l) {
        reference.Access(a + l * line, a_write);
      }
    } else {
      cycles = cache.SweepLinePairs(a, a_write, b, b_write, lines).value;
      for (uint32_t l = 0; l < lines; ++l) {
        reference.Access(a + l * line, a_write);
        reference.Access(b + l * line, b_write);
      }
    }
    ASSERT_EQ(cycles, reference.cycles - cycles_before);
    std::vector<PhysAddr> probes;
    for (int probe = 0; probe < 8; ++probe) {
      probes.push_back(PhysAddr(static_cast<uint32_t>(rng.NextBelow(64 * 1024))));
    }
    ExpectMatchesReference(cache, reference, probes);
  }
  EXPECT_GT(reference.stats.hits, 0u);
  EXPECT_GT(reference.stats.dirty_writebacks, 0u);
}

// Stamps are 32-bit and renumbered by rank in each set when the clock would pass
// Cache::kMaxStamp. Each round moves the clock to just below that point and then mixes
// every entry point across it: single accesses, same-line repeats (stride-0 runs) with
// counts near UINT32_MAX (the idle fast-forward's instruction fetches), line sweeps
// (line-stride runs, or sub-line-stride runs from a line-aligned start, which repeat each
// line), and pair sweeps with the streams in the same or in different sets.
TEST_P(CacheModelSweep, StampRenumberingIsExact) {
  const CacheGeometry geometry = GetParam();
  Cache cache("model", geometry, kModelTiming);
  ReferenceRun reference(geometry);
  Rng rng(31);
  const uint32_t line = geometry.line_bytes;
  const uint32_t way_bytes = geometry.NumSets() * line;
  const auto random_pa = [&] { return PhysAddr(static_cast<uint32_t>(rng.NextBelow(64 * 1024))); };
  for (int round = 0; round < 40; ++round) {
    // Short rounds: the clock crosses the renumbering point forty times.
    cache.AdvanceLruClock(Cache::kMaxStamp - static_cast<uint32_t>(rng.NextBelow(8)));
    const auto ops = static_cast<int>(10 + rng.NextBelow(40));
    for (int op = 0; op < ops; ++op) {
      SCOPED_TRACE("round " + std::to_string(round) + " op " + std::to_string(op));
      const PhysAddr a = random_pa();
      const bool a_write = rng.Chance(1, 2);
      const bool b_write = rng.Chance(1, 2);
      std::vector<PhysAddr> probes = {a};
      const uint64_t cycles_before = reference.cycles;
      switch (rng.NextBelow(5)) {
        case 0: {
          const uint64_t cycles = cache.Access(a, a_write).value;
          reference.Access(a, a_write);
          ASSERT_EQ(cycles, reference.cycles - cycles_before);
          break;
        }
        case 1: {
          const uint32_t n = rng.Chance(1, 2)
                                 ? UINT32_MAX - static_cast<uint32_t>(rng.NextBelow(8))
                                 : 1 + static_cast<uint32_t>(rng.NextBelow(6));
          const uint64_t cycles = cache.Run(a, /*stride=*/0, n, a_write).value;
          reference.Access(a, a_write, n);
          ASSERT_EQ(cycles, reference.cycles - cycles_before);
          break;
        }
        case 2: {
          const auto lines = static_cast<uint32_t>(rng.NextBelow(2 * geometry.NumSets()));
          const uint32_t repeat = rng.Chance(1, 2) ? 1 : line / 8;
          const PhysAddr start(a.value & ~(line - 1));
          const uint64_t cycles = cache.Run(start, line / repeat, lines * repeat, a_write).value;
          for (uint32_t l = 0; l < lines; ++l) {
            reference.Access(start + l * line, a_write, repeat);
            probes.push_back(start + l * line);
          }
          ASSERT_EQ(cycles, reference.cycles - cycles_before);
          break;
        }
        default: {
          // Same sets (a whole number of ways apart) or, one time in two, any other offset.
          const PhysAddr b = rng.Chance(1, 2)
                                 ? a + static_cast<uint32_t>(1 + rng.NextBelow(4)) * way_bytes
                                 : random_pa();
          const auto lines = static_cast<uint32_t>(rng.NextBelow(2 * geometry.NumSets()));
          const uint64_t cycles = cache.SweepLinePairs(a, a_write, b, b_write, lines).value;
          for (uint32_t l = 0; l < lines; ++l) {
            reference.Access(a + l * line, a_write);
            reference.Access(b + l * line, b_write);
            probes.push_back(a + l * line);
            probes.push_back(b + l * line);
          }
          ASSERT_EQ(cycles, reference.cycles - cycles_before);
          break;
        }
      }
      for (int probe = 0; probe < 8; ++probe) {
        probes.push_back(random_pa());
      }
      ExpectMatchesReference(cache, reference, probes);
    }
  }
  EXPECT_GT(reference.stats.hits, 0u);
  EXPECT_GT(reference.stats.dirty_writebacks, 0u);
}

// A set that no access reaches between two renumberings still holds its ranks (1, 2, ...)
// at the second one, where each stamp already equals its rank. Set 0 is filled and then
// re-touched in reverse, so its LRU order runs against the way order; two renumberings
// are then forced through set 1 alone, and fresh lines missing into set 0 must displace
// its lines in the reference's order.
TEST_P(CacheModelSweep, RenumberingTwiceKeepsUntouchedSetsInOrder) {
  const CacheGeometry geometry = GetParam();
  Cache cache("model", geometry, kModelTiming);
  ReferenceRun reference(geometry);
  const uint32_t line = geometry.line_bytes;
  const uint32_t way_bytes = geometry.NumSets() * line;
  const auto touch = [&](PhysAddr pa) {
    const ModelOutcome model = Classify(cache.Access(pa, /*is_write=*/true));
    const ReferenceCache::Outcome expected = reference.Access(pa, /*is_write=*/true);
    ASSERT_EQ(model.hit, expected.hit) << "pa=0x" << std::hex << pa.value;
    ASSERT_EQ(model.evicted_dirty, expected.evicted_dirty) << "pa=0x" << std::hex << pa.value;
  };
  for (uint32_t w = 0; w < geometry.associativity; ++w) {
    touch(PhysAddr(w * way_bytes));
  }
  for (uint32_t w = geometry.associativity; w-- > 0;) {
    touch(PhysAddr(w * way_bytes));
  }
  for (int renumbering = 0; renumbering < 2; ++renumbering) {
    cache.AdvanceLruClock(Cache::kMaxStamp);
    touch(PhysAddr(line));  // set 1
  }
  std::vector<PhysAddr> probes;
  for (uint32_t w = 0; w < 2 * geometry.associativity; ++w) {
    probes.push_back(PhysAddr(w * way_bytes));
  }
  for (uint32_t fresh = 0; fresh < geometry.associativity; ++fresh) {
    touch(PhysAddr((geometry.associativity + fresh) * way_bytes));
    ExpectMatchesReference(cache, reference, probes);
  }
}

// Pair sweeps whose streams sit in different sets, each run longer than the cache, so one
// stream keeps displacing the other's lines (the copies the kernel issues never take this
// path: their page-aligned frames put both streams in the same sets).
TEST_P(CacheModelSweep, LongMisalignedPairSweepsMatchReferenceLruModel) {
  const CacheGeometry geometry = GetParam();
  Cache cache("model", geometry, kModelTiming);
  ReferenceRun reference(geometry);
  Rng rng(91);
  const uint32_t line = geometry.line_bytes;
  const uint32_t set_mask = geometry.NumSets() - 1;
  for (int i = 0; i < 40; ++i) {
    SCOPED_TRACE("sweep " + std::to_string(i));
    const PhysAddr a(static_cast<uint32_t>(rng.NextBelow(256 * 1024)));
    PhysAddr b(static_cast<uint32_t>(rng.NextBelow(256 * 1024)));
    if (((a.value / line) & set_mask) == ((b.value / line) & set_mask)) {
      b = b + line;
    }
    const bool a_write = rng.Chance(1, 2);
    const bool b_write = rng.Chance(1, 2);
    const auto lines = static_cast<uint32_t>(geometry.NumLines() +
                                             rng.NextBelow(2 * geometry.NumLines()));
    const uint64_t cycles_before = reference.cycles;
    const uint64_t cycles = cache.SweepLinePairs(a, a_write, b, b_write, lines).value;
    std::vector<PhysAddr> probes;
    for (uint32_t l = 0; l < lines; ++l) {
      reference.Access(a + l * line, a_write);
      reference.Access(b + l * line, b_write);
      if (lines - l <= geometry.NumLines()) {
        probes.push_back(a + l * line);
        probes.push_back(b + l * line);
      }
    }
    ASSERT_EQ(cycles, reference.cycles - cycles_before);
    ExpectMatchesReference(cache, reference, probes);
  }
  EXPECT_GT(reference.stats.dirty_writebacks, 0u);
}

// The sweep kernel's chunk shapes, for every pair of stream write flags: chunks that start
// and end inside one four-set group (pairs shorter than a group, and single streams whose
// set-index wrap leaves a chunk of one to three sets), chunks with both ends mid-group, and
// long runs from a group boundary over whole groups only. Each shape goes out as a pair
// sweep, a line-stride run and a quarter-line-stride run (whole lines with a repeat count),
// after random traffic that leaves the swept lines and their neighbours in the same sets
// partly resident and dirty.
TEST_P(CacheModelSweep, SweepChunkShapesMatchReferenceLruModel) {
  const CacheGeometry geometry = GetParam();
  const uint32_t line = geometry.line_bytes;
  const uint32_t sets = geometry.NumSets();
  const uint32_t way_bytes = sets * line;
  struct Shape {
    uint32_t first_set;
    uint32_t lines;
  };
  const std::vector<Shape> shapes = {
      // Inside one group.
      {1, 1}, {1, 2}, {2, 1}, {5, 2}, {sets - 3, 2}, {sets - 2, 4}, {sets - 1, 4}, {sets - 3, 5},
      // Both ends mid-group.
      {1, 6}, {2, 9}, {3, 14}, {5, 23}, {sets / 2 + 1, sets / 2 - 2}, {3, sets + 2},
      // Whole groups only.
      {0, 4}, {4, 8}, {0, sets}, {sets / 2, sets / 2}, {8, sets}, {0, 2 * sets}};
  for (const bool a_write : {false, true}) {
    for (const bool b_write : {false, true}) {
      Cache cache("model", geometry, kModelTiming);
      ReferenceRun reference(geometry);
      Rng rng(500 + (a_write ? 2 : 0) + (b_write ? 1 : 0));
      for (const Shape& shape : shapes) {
        for (int mode = 0; mode < 3; ++mode) {
          SCOPED_TRACE(std::string(a_write ? "store" : "load") + "/" +
                       (b_write ? "store" : "load") + " first_set=" +
                       std::to_string(shape.first_set) + " lines=" + std::to_string(shape.lines) +
                       " mode=" + std::to_string(mode));
          const uint32_t base = static_cast<uint32_t>(rng.NextBelow(8)) * way_bytes;
          const PhysAddr a(base + shape.first_set * line);
          const PhysAddr b = a + static_cast<uint32_t>(1 + rng.NextBelow(3)) * way_bytes;
          for (int t = 0; t < 3 * static_cast<int>(geometry.associativity) * 16; ++t) {
            const PhysAddr pa(base + static_cast<uint32_t>(rng.NextBelow(4 * way_bytes)));
            const bool w = rng.Chance(1, 2);
            const uint64_t before = reference.cycles;
            const uint64_t cycles = cache.Access(pa, w).value;
            reference.Access(pa, w);
            ASSERT_EQ(cycles, reference.cycles - before);
          }
          const uint64_t cycles_before = reference.cycles;
          uint64_t cycles = 0;
          std::vector<PhysAddr> probes;
          if (mode == 0) {
            cycles = cache.SweepLinePairs(a, a_write, b, b_write, shape.lines).value;
          } else {
            const uint32_t repeat = mode == 1 ? 1 : 4;
            cycles = cache.Run(a, line / repeat, shape.lines * repeat, a_write).value;
          }
          for (uint32_t l = 0; l < shape.lines; ++l) {
            reference.Access(a + l * line, a_write, mode == 2 ? 4 : 1);
            probes.push_back(a + l * line);
            if (mode == 0) {
              reference.Access(b + l * line, b_write);
              probes.push_back(b + l * line);
            }
          }
          ASSERT_EQ(cycles, reference.cycles - cycles_before);
          for (uint32_t w = 1; w <= 4; ++w) {
            probes.push_back(a + w * way_bytes);
          }
          ExpectMatchesReference(cache, reference, probes);
        }
      }
      EXPECT_GT(reference.stats.hits, 0u);
      EXPECT_GT(reference.stats.dirty_writebacks, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelSweep,
    ::testing::Values(
        CacheGeometry{.size_bytes = 8 * 1024, .line_bytes = 32, .associativity = 2},
        CacheGeometry{.size_bytes = 16 * 1024, .line_bytes = 32, .associativity = 4},
        CacheGeometry{.size_bytes = 4 * 1024, .line_bytes = 64, .associativity = 1},
        CacheGeometry{.size_bytes = 12 * 1024, .line_bytes = 32, .associativity = 3},
        CacheGeometry{.size_bytes = 16 * 1024, .line_bytes = 32, .associativity = 8}));

// ---- TLB vs reference ----

TEST(TlbModelTest, MatchesReferenceUnderRandomTraffic) {
  Tlb tlb("model", 64);
  ReferenceTlb reference(64, 2);
  Rng rng(7);
  for (int i = 0; i < 30000; ++i) {
    const uint32_t vsid = static_cast<uint32_t>(rng.NextBelow(8));
    const uint32_t page = static_cast<uint32_t>(rng.NextBelow(256));
    switch (rng.NextBelow(3)) {
      case 0: {
        const bool model = tlb.LookupPtr(VirtPage{Vsid(vsid), page}) != nullptr;
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
