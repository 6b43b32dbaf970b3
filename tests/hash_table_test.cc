// Hashed page table tests: the architected hash functions, search/insert/replace behaviour,
// per-page invalidation cost, zombie reclaim, and occupancy statistics (§3, §5.2, §7).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

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

// One charge a sweep made: a run of slot reads (count > 0) or a single store (count == 0).
struct ChargeEvent {
  uint32_t addr = 0;
  uint32_t count = 0;
  bool is_write = false;
  bool operator==(const ChargeEvent&) const = default;
};

// Records every run and single charge in order, without expanding runs, so the split of
// reads into runs is compared too.
class RecordingCharger : public MemCharger {
 public:
  void Charge(PhysAddr pa, bool is_write) override {
    events.push_back(ChargeEvent{.addr = pa.value, .count = 0, .is_write = is_write});
  }
  void ChargeRun(PhysAddr pa, uint32_t stride, uint32_t count, bool is_write) override {
    EXPECT_EQ(stride, kPteBytes);
    EXPECT_FALSE(is_write);
    events.push_back(ChargeEvent{.addr = pa.value, .count = count, .is_write = is_write});
  }
  std::vector<ChargeEvent> events;
};

// The slot-by-slot reference sweep over a snapshot of the table: every slot of [first, end)
// is read, and a valid slot `pred` selects is cleared by a store after the reads before it.
template <typename Pred>
uint32_t ReferenceSweep(std::vector<HashedPte>& slots, PhysAddr base, uint32_t first,
                        uint32_t end, Pred pred, std::vector<ChargeEvent>& events) {
  uint32_t cleared = 0;
  uint32_t run_start = first;
  const auto reads = [&](uint32_t from, uint32_t to) {
    if (to > from) {
      events.push_back(ChargeEvent{.addr = base.value + from * kPteBytes, .count = to - from});
    }
  };
  for (uint32_t slot = first; slot < end; ++slot) {
    if (slots[slot].valid && pred(slots[slot])) {
      slots[slot].valid = false;
      ++cleared;
      reads(run_start, slot + 1);
      events.push_back(ChargeEvent{.addr = base.value + slot * kPteBytes, .is_write = true});
      run_start = slot + 1;
    }
  }
  reads(run_start, end);
  return cleared;
}

std::vector<HashedPte> SnapshotSlots(const HashTable& htab) {
  std::vector<HashedPte> slots;
  for (uint32_t g = 0; g < htab.num_ptegs(); ++g) {
    for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
      slots.push_back(htab.At(g, s));
    }
  }
  return slots;
}

// Property: under random Insert / InvalidatePage / InvalidatePteg / ReclaimZombies /
// InvalidateMatching / Clear sequences the per-PTEG valid mask mirrors every slot's valid
// bit, and each sweep clears and charges exactly what a slot-by-slot sweep would.
TEST(HashTableProperty, ValidMaskMirrorsSlotsAndSweepsMatchTheSlotBySlotReference) {
  for (const uint32_t num_ptegs : {16u, 64u}) {
    SCOPED_TRACE(std::to_string(num_ptegs) + " PTEGs");
    const PhysAddr base(0x180000);
    HashTable htab(num_ptegs, base);
    SetVsidOracle oracle;
    NullMemCharger null_charger;
    Rng rng(num_ptegs);
    constexpr uint32_t kVsids = 24;
    for (uint32_t v = 0; v < kVsids; ++v) {
      oracle.MarkLive(Vsid(v));
    }
    const auto random_page = [&]() {
      return VirtPage{.vsid = Vsid(static_cast<uint32_t>(rng.NextBelow(kVsids))),
                      .page_index = static_cast<uint32_t>(rng.NextBelow(64))};
    };
    uint32_t cursor = 0;  // the reference's copy of the reclaim cursor
    uint32_t swept = 0;   // entries the sweeps cleared, to show they did work
    for (int op = 0; op < 4000; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const uint64_t kind = rng.NextBelow(100);
      if (kind < 50) {
        const VirtPage vp = random_page();
        htab.Insert(MakePte(vp.vsid.value, vp.page_index), oracle, null_charger);
      } else if (kind < 60) {
        htab.InvalidatePage(random_page(), null_charger);
      } else if (kind < 66) {
        const uint32_t g = static_cast<uint32_t>(rng.NextBelow(num_ptegs));
        std::vector<ChargeEvent> expected;
        uint32_t valid = 0;
        for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
          if (htab.At(g, s).valid) {
            ++valid;
            expected.push_back(ChargeEvent{.addr = htab.SlotAddr(g, s).value, .is_write = true});
          }
        }
        RecordingCharger charger;
        EXPECT_EQ(htab.InvalidatePteg(g, &charger), valid);
        EXPECT_EQ(charger.events, expected);
      } else if (kind < 80) {
        // Flip a few VSIDs' liveness, then reclaim from the cursor: up to a little more
        // than the whole table, so the scan wraps and clamps.
        for (int flips = 0; flips < 3; ++flips) {
          const Vsid v(static_cast<uint32_t>(rng.NextBelow(kVsids)));
          if (oracle.IsLive(v)) {
            oracle.Retire(v);
          } else {
            oracle.MarkLive(v);
          }
        }
        const uint32_t max_ptegs = static_cast<uint32_t>(rng.NextBelow(num_ptegs + 4));
        const auto zombie = [&oracle](const HashedPte& pte) { return !oracle.IsLive(pte.vsid); };
        std::vector<HashedPte> slots = SnapshotSlots(htab);
        std::vector<ChargeEvent> expected;
        const uint32_t stop = cursor + std::min(max_ptegs, num_ptegs);
        uint32_t cleared = ReferenceSweep(slots, base, cursor * kPtesPerPteg,
                                          std::min(stop, num_ptegs) * kPtesPerPteg, zombie,
                                          expected);
        if (stop > num_ptegs) {
          cleared += ReferenceSweep(slots, base, 0, (stop - num_ptegs) * kPtesPerPteg, zombie,
                                    expected);
        }
        cursor = stop % num_ptegs;
        RecordingCharger charger;
        EXPECT_EQ(htab.ReclaimZombies(max_ptegs, oracle, charger), cleared);
        EXPECT_EQ(charger.events, expected);
        swept += cleared;
      } else if (kind < 97) {
        const uint32_t residue = static_cast<uint32_t>(rng.NextBelow(5));
        const auto pred = [residue](const HashedPte& pte) {
          return (pte.vsid.value + pte.page_index) % 5 == residue;
        };
        std::vector<HashedPte> slots = SnapshotSlots(htab);
        std::vector<ChargeEvent> expected;
        const uint32_t cleared =
            ReferenceSweep(slots, base, 0, htab.capacity(), pred, expected);
        RecordingCharger charger;
        EXPECT_EQ(htab.InvalidateMatching(pred, &charger), cleared);
        EXPECT_EQ(charger.events, expected);
        swept += cleared;
      } else {
        htab.Clear();
        cursor = 0;
      }
      uint32_t valid = 0;
      for (uint32_t g = 0; g < num_ptegs; ++g) {
        for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
          ASSERT_EQ((htab.ValidMask(g) >> s) & 1u, htab.At(g, s).valid ? 1u : 0u)
              << "PTEG " << g << " slot " << s;
          valid += htab.At(g, s).valid ? 1 : 0;
        }
      }
      ASSERT_EQ(htab.ValidCount(), valid);
    }
    EXPECT_GT(swept, 100u);
  }
}

}  // namespace
}  // namespace ppcmm
