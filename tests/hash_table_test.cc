// Hashed page table tests: the architected hash functions, search/insert/replace behaviour,
// per-page invalidation cost, zombie reclaim, and occupancy statistics (§3, §5.2, §7).

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "src/mmu/hash_table.h"
#include "src/sim/check.h"
#include "src/sim/rng.h"

namespace ppcmm {
namespace {

constexpr uint32_t kTestPtegs = 2048;  // the paper's 16384-entry table

class SetVsidOracle : public VsidOracle {
 public:
  void MarkLive(Vsid v) { live_.insert(v.value); }
  void Retire(Vsid v) { live_.erase(v.value); }
  bool IsLive(Vsid v) const override { return live_.contains(v.value); }

 private:
  std::unordered_set<uint32_t> live_;
};

HashedPte MakePte(uint32_t vsid, uint32_t page_index, uint32_t rpn = 0x100) {
  return HashedPte{.valid = true,
                   .vsid = Vsid(vsid),
                   .page_index = page_index,
                   .rpn = rpn,
                   .cache_inhibited = false,
                   .writable = true,
                   .referenced = false,
                   .changed = false};
}

TEST(HashTableTest, GeometryMatchesPaper) {
  HashTable htab(kTestPtegs, PhysAddr(0x180000));
  EXPECT_EQ(htab.capacity(), 16384u);
  EXPECT_EQ(htab.SizeBytes(), 128u * 1024);
}

TEST(HashTableTest, PrimaryAndSecondaryHashesAlwaysDiffer) {
  HashTable htab(kTestPtegs, PhysAddr(0));
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const VirtPage vp{.vsid = Vsid(static_cast<uint32_t>(rng.NextBelow(1 << 24))),
                      .page_index = static_cast<uint32_t>(rng.NextBelow(1 << 16))};
    const uint32_t primary = htab.PrimaryPteg(vp);
    const uint32_t secondary = htab.SecondaryPteg(vp);
    ASSERT_LT(primary, kTestPtegs);
    ASSERT_LT(secondary, kTestPtegs);
    ASSERT_NE(primary, secondary);
  }
}

TEST(HashTableTest, SlotAddressesAreArchitected) {
  HashTable htab(kTestPtegs, PhysAddr(0x180000));
  EXPECT_EQ(htab.SlotAddr(0, 0).value, 0x180000u);
  EXPECT_EQ(htab.SlotAddr(0, 1).value, 0x180008u);
  EXPECT_EQ(htab.SlotAddr(1, 0).value, 0x180040u);  // 8 slots * 8 bytes per PTEG
  EXPECT_THROW(htab.SlotAddr(kTestPtegs, 0), CheckFailure);
  EXPECT_THROW(htab.SlotAddr(0, 8), CheckFailure);
}

TEST(HashTableTest, InsertThenSearchFinds) {
  HashTable htab(kTestPtegs, PhysAddr(0));
  SetVsidOracle oracle;
  oracle.MarkLive(Vsid(10));
  NullMemCharger charger;
  const HashedPte pte = MakePte(10, 0x123, 0x456);
  EXPECT_EQ(htab.Insert(pte, oracle, charger), HtabInsertOutcome::kFreeSlot);
  const HtabSearchResult result = htab.Search(pte.virt_page(), charger);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.pte.rpn, 0x456u);
  EXPECT_LE(result.memory_refs, 16u);
}

TEST(HashTableTest, MissedSearchCostsSixteenReferences) {
  HashTable htab(kTestPtegs, PhysAddr(0));
  NullMemCharger charger;
  const HtabSearchResult result =
      htab.Search(VirtPage{.vsid = Vsid(99), .page_index = 0x77}, charger);
  EXPECT_FALSE(result.found);
  // "In the worst case, the search requires 16 memory references (2 hash table buckets,
  // containing 8 PTE's each)" — §7.
  EXPECT_EQ(result.memory_refs, 16u);
  EXPECT_EQ(charger.refs(), 16u);
}

TEST(HashTableTest, OverflowsIntoSecondaryPteg) {
  HashTable htab(kTestPtegs, PhysAddr(0));
  SetVsidOracle oracle;
  NullMemCharger charger;
  // Build 9 virtual pages that all hash to the same primary PTEG.
  const VirtPage base{.vsid = Vsid(0), .page_index = 0x100};
  const uint32_t target = htab.PrimaryPteg(base);
  uint32_t inserted = 0;
  for (uint32_t vsid = 0; inserted < 9 && vsid < (1u << 19); ++vsid) {
    const VirtPage vp{.vsid = Vsid(vsid), .page_index = 0x100};
    if (htab.PrimaryPteg(vp) != target) {
      continue;
    }
    oracle.MarkLive(Vsid(vsid));
    EXPECT_EQ(htab.Insert(MakePte(vsid, 0x100), oracle, charger),
              HtabInsertOutcome::kFreeSlot);
    // Every one must remain findable — the ninth lives in the secondary PTEG.
    const HtabSearchResult found = htab.Search(vp, charger);
    ASSERT_TRUE(found.found) << "vsid " << vsid;
    ++inserted;
  }
  EXPECT_EQ(inserted, 9u);
}

TEST(HashTableTest, ReplacementClassifiesLiveVersusZombie) {
  HashTable htab(4, PhysAddr(0));  // tiny table: 4 PTEGs, 32 entries
  SetVsidOracle oracle;
  NullMemCharger charger;
  // Fill the whole table with live entries.
  uint32_t filled = 0;
  for (uint32_t v = 0; filled < 32 && v < 4096; ++v) {
    oracle.MarkLive(Vsid(v));
    if (htab.Insert(MakePte(v, 0), oracle, charger) == HtabInsertOutcome::kFreeSlot) {
      ++filled;
    }
  }
  EXPECT_EQ(htab.ValidCount(), 32u);
  // Now a full table: inserting must replace a live entry.
  oracle.MarkLive(Vsid(9999));
  const HtabInsertOutcome live_evict = htab.Insert(MakePte(9999, 5), oracle, charger);
  EXPECT_EQ(live_evict, HtabInsertOutcome::kReplacedLive);

  // Retire everything: replacements now hit zombies.
  for (uint32_t v = 0; v < 4096; ++v) {
    oracle.Retire(Vsid(v));
  }
  oracle.MarkLive(Vsid(10000));
  const HtabInsertOutcome zombie = htab.Insert(MakePte(10000, 6), oracle, charger);
  EXPECT_EQ(zombie, HtabInsertOutcome::kReplacedZombie);
}

TEST(HashTableTest, InvalidatePageClearsExactlyThatEntry) {
  HashTable htab(kTestPtegs, PhysAddr(0));
  SetVsidOracle oracle;
  oracle.MarkLive(Vsid(5));
  NullMemCharger charger;
  htab.Insert(MakePte(5, 0x10), oracle, charger);
  htab.Insert(MakePte(5, 0x11), oracle, charger);
  const VirtPage page{.vsid = Vsid(5), .page_index = 0x10};
  EXPECT_TRUE(htab.InvalidatePage(page, charger).found);
  EXPECT_FALSE(htab.Search(page, charger).found);
  EXPECT_TRUE(htab.Search(VirtPage{.vsid = Vsid(5), .page_index = 0x11}, charger).found);
  // Invalidating again finds nothing.
  EXPECT_FALSE(htab.InvalidatePage(page, charger).found);
}

TEST(HashTableTest, ReclaimZombiesSweepsOnlyDeadVsids) {
  HashTable htab(kTestPtegs, PhysAddr(0));
  SetVsidOracle oracle;
  NullMemCharger charger;
  for (uint32_t v = 0; v < 64; ++v) {
    oracle.MarkLive(Vsid(v));
    htab.Insert(MakePte(v, v * 3), oracle, charger);
  }
  // Retire the even VSIDs.
  for (uint32_t v = 0; v < 64; v += 2) {
    oracle.Retire(Vsid(v));
  }
  // Sweep the entire table (possibly in chunks, exercising the cursor).
  uint32_t reclaimed = 0;
  for (uint32_t pass = 0; pass < kTestPtegs / 64; ++pass) {
    reclaimed += htab.ReclaimZombies(64, oracle, charger);
  }
  EXPECT_EQ(reclaimed, 32u);
  EXPECT_EQ(htab.ValidCount(), 32u);
  for (uint32_t v = 1; v < 64; v += 2) {
    EXPECT_TRUE(htab.Search(VirtPage{.vsid = Vsid(v), .page_index = v * 3}, charger).found);
  }
}

TEST(HashTableTest, InvalidateMatchingByPredicate) {
  HashTable htab(kTestPtegs, PhysAddr(0));
  SetVsidOracle oracle;
  NullMemCharger charger;
  for (uint32_t v = 100; v < 110; ++v) {
    oracle.MarkLive(Vsid(v));
    htab.Insert(MakePte(v, 1), oracle, charger);
  }
  const uint32_t cleared = htab.InvalidateMatching(
      [](const HashedPte& pte) { return pte.vsid.value < 105; }, &charger);
  EXPECT_EQ(cleared, 5u);
  EXPECT_EQ(htab.ValidCount(), 5u);
}

TEST(HashTableTest, OccupancyHistogramAndUtilization) {
  HashTable htab(kTestPtegs, PhysAddr(0));
  SetVsidOracle oracle;
  NullMemCharger charger;
  EXPECT_EQ(htab.OccupancyHistogram()[0], kTestPtegs);
  EXPECT_DOUBLE_EQ(htab.Utilization(), 0.0);
  oracle.MarkLive(Vsid(1));
  htab.Insert(MakePte(1, 0), oracle, charger);
  htab.Insert(MakePte(1, 1), oracle, charger);
  const auto histogram = htab.OccupancyHistogram();
  uint32_t total_ptegs = 0;
  uint32_t total_entries = 0;
  for (uint32_t occupancy = 0; occupancy <= kPtesPerPteg; ++occupancy) {
    total_ptegs += histogram[occupancy];
    total_entries += histogram[occupancy] * occupancy;
  }
  EXPECT_EQ(total_ptegs, kTestPtegs);
  EXPECT_EQ(total_entries, htab.ValidCount());
  EXPECT_EQ(htab.ValidCount(), 2u);
}

TEST(HashTableTest, LiveCountTracksOracle) {
  HashTable htab(kTestPtegs, PhysAddr(0));
  SetVsidOracle oracle;
  NullMemCharger charger;
  for (uint32_t v = 0; v < 10; ++v) {
    oracle.MarkLive(Vsid(v));
    htab.Insert(MakePte(v, 0), oracle, charger);
  }
  EXPECT_EQ(htab.LiveCount(oracle), 10u);
  for (uint32_t v = 0; v < 4; ++v) {
    oracle.Retire(Vsid(v));
  }
  EXPECT_EQ(htab.LiveCount(oracle), 6u);
  EXPECT_EQ(htab.ValidCount(), 10u);  // zombies still hold valid bits
}

TEST(HashTableTest, ClearResetsEverything) {
  HashTable htab(kTestPtegs, PhysAddr(0));
  SetVsidOracle oracle;
  oracle.MarkLive(Vsid(1));
  NullMemCharger charger;
  htab.Insert(MakePte(1, 0), oracle, charger);
  htab.Clear();
  EXPECT_EQ(htab.ValidCount(), 0u);
  EXPECT_FALSE(htab.Search(VirtPage{.vsid = Vsid(1), .page_index = 0}, charger).found);
}

// Property: under random insert/search traffic with all-live VSIDs, any entry inserted and
// never displaced must be findable, and every search stays within the 16-reference bound.
TEST(HashTableProperty, InsertedEntriesRemainFindableUntilDisplaced) {
  HashTable htab(256, PhysAddr(0));
  AllLiveVsidOracle oracle;
  NullMemCharger charger;
  Rng rng(99);
  std::set<std::pair<uint32_t, uint32_t>> inserted;
  uint32_t displaced = 0;
  for (int i = 0; i < 1500; ++i) {
    const uint32_t vsid = static_cast<uint32_t>(rng.NextBelow(1 << 20));
    const uint32_t page = static_cast<uint32_t>(rng.NextBelow(1 << 16));
    const HtabInsertOutcome outcome = htab.Insert(MakePte(vsid, page), oracle, charger);
    if (outcome != HtabInsertOutcome::kFreeSlot) {
      ++displaced;  // something got replaced; we only track that it happened
    }
    inserted.insert({vsid, page});
    const HtabSearchResult found =
        htab.Search(VirtPage{.vsid = Vsid(vsid), .page_index = page}, charger);
    ASSERT_TRUE(found.found);
    ASSERT_LE(found.memory_refs, 16u);
  }
  // With 1500 inserts into 2048 slots some displacement is plausible but occupancy must
  // never exceed capacity.
  EXPECT_LE(htab.ValidCount(), htab.capacity());
  EXPECT_EQ(htab.ValidCount() + displaced, 1500u);
}

}  // namespace
}  // namespace ppcmm
