// TLB tests: VSID-tagged lookup, set-associative replacement, tlbie semantics, and the
// kernel-entry accounting behind the §5.1 footprint measurements.

#include <gtest/gtest.h>

#include "src/mmu/tlb.h"
#include "src/sim/rng.h"

namespace ppcmm {
namespace {

TlbEntry MakeEntry(uint32_t vsid, uint32_t page_index, uint32_t frame = 0x100,
                   bool is_kernel = false) {
  return TlbEntry{.valid = true,
                  .vsid = Vsid(vsid),
                  .page_index = page_index,
                  .frame = frame,
                  .cache_inhibited = false,
                  .writable = true,
                  .is_kernel = is_kernel,
                  .last_used = 0};
}

TEST(TlbTest, InsertThenLookup) {
  Tlb tlb("d", 64);
  tlb.Insert(MakeEntry(7, 0x42, 0x99));
  TlbEntry* hit = tlb.LookupPtr(VirtPage{.vsid = Vsid(7), .page_index = 0x42});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->frame, 0x99u);
}

TEST(TlbTest, VsidDisambiguatesIdenticalPageIndices) {
  // The core of lazy flushing: same page index under a retired VSID must not match.
  Tlb tlb("d", 64);
  tlb.Insert(MakeEntry(7, 0x42, 0xAAA));
  tlb.Insert(MakeEntry(8, 0x42, 0xBBB));
  TlbEntry* hit7 = tlb.LookupPtr(VirtPage{.vsid = Vsid(7), .page_index = 0x42});
  TlbEntry* hit8 = tlb.LookupPtr(VirtPage{.vsid = Vsid(8), .page_index = 0x42});
  ASSERT_NE(hit7, nullptr);
  ASSERT_NE(hit8, nullptr);
  EXPECT_EQ(hit7->frame, 0xAAAu);
  EXPECT_EQ(hit8->frame, 0xBBBu);
  EXPECT_EQ(tlb.LookupPtr(VirtPage{.vsid = Vsid(9), .page_index = 0x42}), nullptr);
}

TEST(TlbTest, ReinsertSamePageUpdatesInPlace) {
  Tlb tlb("d", 64);
  tlb.Insert(MakeEntry(7, 0x42, 0x111));
  tlb.Insert(MakeEntry(7, 0x42, 0x222));
  EXPECT_EQ(tlb.ValidCount(), 1u);
  EXPECT_EQ(tlb.LookupPtr(VirtPage{.vsid = Vsid(7), .page_index = 0x42})->frame, 0x222u);
}

TEST(TlbTest, LruReplacementWithinSet) {
  Tlb tlb("d", 64);  // 32 sets; page indices 0x00 and 0x20 and 0x40 share set 0
  tlb.Insert(MakeEntry(1, 0x00));
  tlb.Insert(MakeEntry(1, 0x20));
  tlb.LookupPtr(VirtPage{.vsid = Vsid(1), .page_index = 0x00});  // refresh 0x00
  tlb.Insert(MakeEntry(1, 0x40));                             // evicts 0x20
  EXPECT_NE(tlb.LookupPtr(VirtPage{.vsid = Vsid(1), .page_index = 0x00}), nullptr);
  EXPECT_EQ(tlb.LookupPtr(VirtPage{.vsid = Vsid(1), .page_index = 0x20}), nullptr);
  EXPECT_NE(tlb.LookupPtr(VirtPage{.vsid = Vsid(1), .page_index = 0x40}), nullptr);
}

TEST(TlbTest, InvalidatePageIgnoresVsid) {
  // tlbie cannot compare VSIDs: every entry with the page index in the indexed set dies.
  Tlb tlb("d", 64);
  tlb.Insert(MakeEntry(1, 0x42));
  tlb.Insert(MakeEntry(2, 0x42));
  const uint32_t cleared = tlb.InvalidatePage(0x42);
  EXPECT_EQ(cleared, 2u);
  EXPECT_EQ(tlb.ValidCount(), 0u);
}

TEST(TlbTest, InvalidateAll) {
  Tlb tlb("d", 64);
  for (uint32_t i = 0; i < 20; ++i) {
    tlb.Insert(MakeEntry(1, i));
  }
  EXPECT_GT(tlb.ValidCount(), 0u);
  tlb.InvalidateAll();
  EXPECT_EQ(tlb.ValidCount(), 0u);
  EXPECT_EQ(tlb.KernelEntryCount(), 0u);
}

TEST(TlbTest, KernelEntryCountTracksInsertEvictInvalidate) {
  Tlb tlb("d", 64);
  tlb.Insert(MakeEntry(100, 0x00, 0x1, /*is_kernel=*/true));
  tlb.Insert(MakeEntry(100, 0x20, 0x2, /*is_kernel=*/true));
  tlb.Insert(MakeEntry(1, 0x01, 0x3, /*is_kernel=*/false));
  EXPECT_EQ(tlb.KernelEntryCount(), 2u);
  // Fill set 0's two ways so a kernel entry gets evicted.
  tlb.Insert(MakeEntry(1, 0x40));
  tlb.Insert(MakeEntry(1, 0x60));
  EXPECT_EQ(tlb.KernelEntryCount(), 0u);
  tlb.Insert(MakeEntry(100, 0x05, 0x1, true));
  EXPECT_EQ(tlb.KernelEntryCount(), 1u);
  tlb.InvalidatePage(0x05);
  EXPECT_EQ(tlb.KernelEntryCount(), 0u);
}

// Parameterized across the real TLB shapes (603: 64-entry, 604: 128-entry, both 2-way).
class TlbShapeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TlbShapeSweep, OccupancyNeverExceedsCapacityAndKernelCountStaysConsistent) {
  const uint32_t entries = GetParam();
  Tlb tlb("sweep", entries);
  Rng rng(1234);
  for (int i = 0; i < 5000; ++i) {
    const bool kernel = rng.Chance(1, 3);
    tlb.Insert(MakeEntry(static_cast<uint32_t>(rng.NextBelow(64)),
                         static_cast<uint32_t>(rng.NextBelow(1 << 16)), 0x10, kernel));
    if (rng.Chance(1, 10)) {
      tlb.InvalidatePage(static_cast<uint32_t>(rng.NextBelow(1 << 16)));
    }
  }
  EXPECT_LE(tlb.ValidCount(), entries);
  // Cross-check the incremental kernel-entry counter against a full recount.
  uint32_t recount = 0;
  tlb.ForEachValid([&](const TlbEntry& e) { recount += e.is_kernel ? 1 : 0; });
  EXPECT_EQ(recount, tlb.KernelEntryCount());
}

INSTANTIATE_TEST_SUITE_P(RealShapes, TlbShapeSweep, ::testing::Values(64u, 128u, 256u));

}  // namespace
}  // namespace ppcmm
