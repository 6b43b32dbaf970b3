// MMU translation-engine tests with a scripted PteBackingSource: BAT priority, TLB refill by
// each reload strategy, cost accounting, fault signalling, and kernel high-water tracking.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/mmu/mmu.h"
#include "src/sim/machine.h"

namespace ppcmm {
namespace {

// A scripted backing source: a map from effective page number to walk info. Charges the
// paper's loads so reload costs are realistic.
class FakeBacking : public PteBackingSource {
 public:
  void MapPage(uint32_t eff_page, uint32_t frame, bool writable = true) {
    pages_[eff_page] = PteWalkInfo{.frame = frame, .writable = writable,
                                   .cache_inhibited = false};
  }
  void UnmapPage(uint32_t eff_page) { pages_.erase(eff_page); }

  std::optional<PteWalkInfo> WalkPte(EffAddr ea, MemCharger& charger) override {
    // Three loads, as in §6.1: task struct, PGD entry, PTE entry.
    charger.Charge(PhysAddr(0x1A0000), false);
    charger.Charge(PhysAddr(0x1B0000), false);
    charger.Charge(PhysAddr(0x1B1000), false);
    ++walks_;
    auto it = pages_.find(ea.EffPageNumber());
    if (it == pages_.end()) {
      return std::nullopt;
    }
    return it->second;
  }

  void MarkPteDirty(EffAddr ea, MemCharger& charger) override {
    charger.Charge(PhysAddr(0x1B1000), true);
    dirtied_.insert(ea.EffPageNumber());
  }

  bool IsDirty(uint32_t eff_page) const { return dirtied_.contains(eff_page); }
  uint64_t walks() const { return walks_; }

 private:
  std::map<uint32_t, PteWalkInfo> pages_;
  std::set<uint32_t> dirtied_;
  uint64_t walks_ = 0;
};

struct MmuFixture {
  explicit MmuFixture(ReloadStrategy strategy, bool optimized = true,
                      bool cache_page_tables = true)
      : machine(strategy == ReloadStrategy::kHardwareHtabWalk ? MachineConfig::Ppc604(185)
                                                              : MachineConfig::Ppc603(180)),
        mmu(machine,
            MmuPolicy{.strategy = strategy,
                      .optimized_handlers = optimized,
                      .cache_page_tables = cache_page_tables},
            PhysAddr(0x180000)) {
    mmu.SetBacking(&backing);
    // One user segment with a known VSID.
    mmu.segments().Set(0, Vsid(0x1234));
    mmu.segments().Set(1, Vsid(0x1235));
  }

  Machine machine;
  Mmu mmu;
  FakeBacking backing;
};

TEST(MmuTest, BatHitBypassesTlbAndHtab) {
  MmuFixture f(ReloadStrategy::kHardwareHtabWalk);
  f.mmu.dbats().Set(0, BatEntry{.valid = true,
                                .eff_base = 0xC0000000,
                                .block_bytes = 32 * 1024 * 1024,
                                .phys_base = 0,
                                .cache_inhibited = false,
                                .supervisor_only = true});
  EXPECT_EQ(f.mmu.Access(EffAddr(0xC0001000), AccessKind::kLoad), AccessOutcome::kOk);
  EXPECT_EQ(f.machine.counters().bat_translations, 1u);
  EXPECT_EQ(f.machine.counters().dtlb_accesses, 0u);
  EXPECT_EQ(f.machine.counters().htab_searches, 0u);
}

TEST(MmuTest, HardwareWalkMissFillsHtabThenTlb) {
  MmuFixture f(ReloadStrategy::kHardwareHtabWalk);
  f.backing.MapPage(0x00010, 0x500);
  EXPECT_EQ(f.mmu.Access(EffAddr(0x00010000), AccessKind::kLoad), AccessOutcome::kOk);
  const HwCounters& c = f.machine.counters();
  EXPECT_EQ(c.dtlb_misses, 1u);
  EXPECT_EQ(c.htab_misses, 1u);   // first walk missed
  EXPECT_EQ(c.htab_reloads, 1u);  // software inserted the PTE
  EXPECT_GE(c.htab_hits, 1u);     // hardware retry found it
  EXPECT_EQ(f.backing.walks(), 1u);

  // Second access: pure TLB hit — no new walks, searches or misses.
  const HwCounters before = f.machine.counters();
  EXPECT_EQ(f.mmu.Access(EffAddr(0x00010004), AccessKind::kLoad), AccessOutcome::kOk);
  const HwCounters delta = f.machine.counters().Diff(before);
  EXPECT_EQ(delta.dtlb_misses, 0u);
  EXPECT_EQ(delta.htab_searches, 0u);
  EXPECT_EQ(f.backing.walks(), 1u);
}

TEST(MmuTest, TlbEvictionRefillsFromHtabWithoutTreeWalk) {
  MmuFixture f(ReloadStrategy::kHardwareHtabWalk);
  // 128-entry 2-way DTLB = 64 sets: page indices i and i+64 (and +128...) share a set.
  // Map three pages in the same set of segment 0.
  f.backing.MapPage(0x00000, 0x500);
  f.backing.MapPage(0x00040, 0x501);
  f.backing.MapPage(0x00080, 0x502);
  f.mmu.Access(EffAddr::FromPage(0x00000), AccessKind::kLoad);
  f.mmu.Access(EffAddr::FromPage(0x00040), AccessKind::kLoad);
  f.mmu.Access(EffAddr::FromPage(0x00080), AccessKind::kLoad);  // evicts one of the others
  const uint64_t walks_before = f.backing.walks();
  // Touch the first page again: if it was evicted, the refill must come from the HTAB
  // (hardware walk) without consulting the Linux tree.
  f.mmu.Access(EffAddr::FromPage(0x00000), AccessKind::kLoad);
  f.mmu.Access(EffAddr::FromPage(0x00040), AccessKind::kLoad);
  EXPECT_EQ(f.backing.walks(), walks_before);
}

TEST(MmuTest, SoftwareHtabStrategyChargesMissInterrupt) {
  MmuFixture f(ReloadStrategy::kSoftwareHtab);
  f.backing.MapPage(0x00010, 0x500);
  const Cycles before = f.machine.Now();
  f.mmu.Access(EffAddr(0x00010000), AccessKind::kLoad);
  const uint64_t cost = (f.machine.Now() - before).value;
  // At least the 32-cycle interrupt plus handler body plus the 16-probe search.
  EXPECT_GE(cost, 32u + 16u);
  EXPECT_EQ(f.machine.counters().htab_searches, 1u);
  EXPECT_EQ(f.machine.counters().htab_reloads, 1u);
}

TEST(MmuTest, SoftwareDirectStrategyNeverTouchesHtab) {
  MmuFixture f(ReloadStrategy::kSoftwareDirect);
  f.backing.MapPage(0x00010, 0x500);
  f.mmu.Access(EffAddr(0x00010000), AccessKind::kLoad);
  f.mmu.Access(EffAddr(0x00010000), AccessKind::kLoad);
  const HwCounters& c = f.machine.counters();
  EXPECT_EQ(c.htab_searches, 0u);
  EXPECT_EQ(c.htab_reloads, 0u);
  EXPECT_EQ(f.mmu.htab().ValidCount(), 0u);
  EXPECT_EQ(c.pte_tree_walks, 1u);
}

TEST(MmuTest, DirectReloadIsCheaperThanHtabEmulation) {
  // §6.2's claim, at the cost-model level: the same miss costs less without the HTAB.
  MmuFixture emulating(ReloadStrategy::kSoftwareHtab);
  MmuFixture direct(ReloadStrategy::kSoftwareDirect);
  emulating.backing.MapPage(0x00010, 0x500);
  direct.backing.MapPage(0x00010, 0x500);
  const double emulating_cost = [&] {
    const Cycles before = emulating.machine.Now();
    emulating.mmu.Access(EffAddr(0x00010000), AccessKind::kLoad);
    return static_cast<double>((emulating.machine.Now() - before).value);
  }();
  const double direct_cost = [&] {
    const Cycles before = direct.machine.Now();
    direct.mmu.Access(EffAddr(0x00010000), AccessKind::kLoad);
    return static_cast<double>((direct.machine.Now() - before).value);
  }();
  EXPECT_LT(direct_cost, emulating_cost);
}

TEST(MmuTest, UnoptimizedHandlersCostMore) {
  MmuFixture fast(ReloadStrategy::kSoftwareDirect, /*optimized=*/true);
  MmuFixture slow(ReloadStrategy::kSoftwareDirect, /*optimized=*/false);
  fast.backing.MapPage(0x00010, 0x500);
  slow.backing.MapPage(0x00010, 0x500);
  const Cycles f0 = fast.machine.Now();
  fast.mmu.Access(EffAddr(0x00010000), AccessKind::kLoad);
  const uint64_t fast_cost = (fast.machine.Now() - f0).value;
  const Cycles s0 = slow.machine.Now();
  slow.mmu.Access(EffAddr(0x00010000), AccessKind::kLoad);
  const uint64_t slow_cost = (slow.machine.Now() - s0).value;
  EXPECT_GT(slow_cost, fast_cost + 100);
}

TEST(MmuTest, PageFaultInstallsNothing) {
  MmuFixture f(ReloadStrategy::kHardwareHtabWalk);
  EXPECT_EQ(f.mmu.Access(EffAddr(0x00010000), AccessKind::kLoad), AccessOutcome::kPageFault);
  EXPECT_EQ(f.mmu.htab().ValidCount(), 0u);
  EXPECT_EQ(f.mmu.dtlb().ValidCount(), 0u);
  // Repairing the tree and retrying succeeds.
  f.backing.MapPage(0x00010, 0x500);
  EXPECT_EQ(f.mmu.Access(EffAddr(0x00010000), AccessKind::kLoad), AccessOutcome::kOk);
}

TEST(MmuTest, ProtectionFaultOnStoreToReadOnlyPage) {
  MmuFixture f(ReloadStrategy::kHardwareHtabWalk);
  f.backing.MapPage(0x00010, 0x500, /*writable=*/false);
  EXPECT_EQ(f.mmu.Access(EffAddr(0x00010000), AccessKind::kLoad), AccessOutcome::kOk);
  EXPECT_EQ(f.mmu.Access(EffAddr(0x00010000), AccessKind::kStore),
            AccessOutcome::kProtectionFault);
}

TEST(MmuTest, InstructionFetchUsesItlb) {
  MmuFixture f(ReloadStrategy::kHardwareHtabWalk);
  f.backing.MapPage(0x00010, 0x500);
  f.mmu.Access(EffAddr(0x00010000), AccessKind::kInstructionFetch);
  EXPECT_EQ(f.machine.counters().itlb_misses, 1u);
  EXPECT_EQ(f.machine.counters().dtlb_misses, 0u);
  EXPECT_EQ(f.mmu.itlb().ValidCount(), 1u);
  EXPECT_EQ(f.mmu.dtlb().ValidCount(), 0u);
}

TEST(MmuTest, KernelHighwaterTracksKernelTlbEntries) {
  MmuFixture f(ReloadStrategy::kHardwareHtabWalk);
  // Map kernel pages in the backing (no BATs): they must occupy TLB entries.
  f.mmu.segments().Set(12, Vsid(0xFFFFF0));
  f.backing.MapPage(0xC0000, 0x000);
  f.backing.MapPage(0xC0001, 0x001);
  f.mmu.Access(EffAddr(0xC0000000), AccessKind::kLoad);
  f.mmu.Access(EffAddr(0xC0001000), AccessKind::kLoad);
  EXPECT_EQ(f.machine.counters().kernel_tlb_highwater, 2u);
  EXPECT_EQ(f.mmu.dtlb().KernelEntryCount(), 2u);
}

TEST(MmuTest, ProbeDoesNotChargeOrMutate) {
  MmuFixture f(ReloadStrategy::kHardwareHtabWalk);
  f.backing.MapPage(0x00010, 0x500);
  const Cycles before = f.machine.Now();
  const auto pa = f.mmu.Probe(EffAddr(0x00010123), AccessKind::kLoad);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(pa->value, PhysAddr::FromFrame(0x500, 0x123).value);
  EXPECT_EQ(f.machine.Now(), before);
  EXPECT_EQ(f.mmu.dtlb().ValidCount(), 0u);
  EXPECT_FALSE(f.mmu.Probe(EffAddr(0x00020000), AccessKind::kLoad).has_value());
}

// One TLB miss, end to end. kHtabHit finds the page in slot 0 of its primary PTEG (under
// kSoftwareDirect there is no HTAB, so it refills from the tree); kTreeRefill finds the
// HTAB empty; kPageFault misses everywhere.
enum class MissCase { kHtabHit, kTreeRefill, kPageFault };

struct ReloadTrail {
  uint64_t cycles = 0;
  uint64_t searches = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t reloads = 0;
  uint64_t walks = 0;
};

// The exact trail of one miss, from the MachineConfig constants. Page tables are uncached,
// so each HTAB or tree reference costs single_beat_cycles; the payload, when there is one,
// hits a line the setup access left in the data cache (1 cycle).
ReloadTrail ExpectedTrail(const MachineConfig& mc, const MmuPolicy& policy, MissCase c) {
  const uint64_t beat = mc.memory.single_beat_cycles;
  const bool hw_walk = policy.strategy == ReloadStrategy::kHardwareHtabWalk;
  ReloadTrail t;
  t.cycles = hw_walk ? mc.hw_walk_base_cycles
                     : mc.tlb_miss_interrupt_cycles + policy.HandlerBodyCycles();
  if (policy.UsesHtab()) {
    t.searches = 1;
    if (c == MissCase::kHtabHit) {
      t.hits = 1;
      t.cycles += beat + 1;  // one probe, then the payload
      return t;
    }
    t.misses = 1;
    t.cycles += 2 * kPtesPerPteg * beat;  // both PTEGs probed in full
    if (hw_walk) {
      t.cycles += mc.hash_miss_interrupt_cycles + policy.HandlerBodyCycles();
    }
  }
  t.walks = 1;
  t.cycles += 3 * beat;  // FakeBacking's three loads
  if (c == MissCase::kPageFault) {
    return t;
  }
  if (policy.UsesHtab()) {
    t.reloads = 1;
    t.cycles += 2 * beat;  // the insert probes slot 0 of the primary PTEG, then stores it
    if (hw_walk) {
      // The retried hardware walk finds the fresh entry with one probe.
      t.cycles += mc.hw_walk_base_cycles + beat;
      ++t.searches;
      ++t.hits;
    }
  }
  t.cycles += 1;  // the payload
  return t;
}

TEST(MmuTest, ReloadTrailIsExactForEveryStrategy) {
  for (const ReloadStrategy strategy :
       {ReloadStrategy::kHardwareHtabWalk, ReloadStrategy::kSoftwareHtab,
        ReloadStrategy::kSoftwareDirect}) {
    for (const bool optimized : {true, false}) {
      for (const MissCase c : {MissCase::kHtabHit, MissCase::kTreeRefill, MissCase::kPageFault}) {
        SCOPED_TRACE(::testing::Message() << "strategy " << static_cast<int>(strategy)
                                          << " optimized " << optimized << " case "
                                          << static_cast<int>(c));
        MmuFixture f(strategy, optimized, /*cache_page_tables=*/false);
        f.backing.MapPage(0x00010, 0x500);
        // Setup: one miss installs the page in the HTAB (if any) and warms the payload line.
        ASSERT_EQ(f.mmu.Access(EffAddr(0x00010000), AccessKind::kLoad), AccessOutcome::kOk);
        f.mmu.TlbInvalidateAll();
        if (c == MissCase::kTreeRefill) {
          f.mmu.htab().Clear();
        }
        const EffAddr ea(c == MissCase::kPageFault ? 0x00011000 : 0x00010000);
        const HwCounters before = f.machine.counters();
        EXPECT_EQ(f.mmu.Access(ea, AccessKind::kLoad),
                  c == MissCase::kPageFault ? AccessOutcome::kPageFault : AccessOutcome::kOk);
        const HwCounters delta = f.machine.counters().Diff(before);
        const ReloadTrail want = ExpectedTrail(f.machine.config(), f.mmu.policy(), c);
        EXPECT_EQ(delta.cycles, want.cycles);
        EXPECT_EQ(delta.dtlb_misses, 1u);
        EXPECT_EQ(delta.htab_searches, want.searches);
        EXPECT_EQ(delta.htab_hits, want.hits);
        EXPECT_EQ(delta.htab_misses, want.misses);
        EXPECT_EQ(delta.htab_reloads, want.reloads);
        EXPECT_EQ(delta.pte_tree_walks, want.walks);
        EXPECT_EQ(f.mmu.dtlb().ValidCount(), c == MissCase::kPageFault ? 0u : 1u);
      }
    }
  }
}

TEST(MmuTest, UncachedPageTablesKeepHtabTrafficOutOfDcache) {
  MmuFixture cached(ReloadStrategy::kHardwareHtabWalk, true, /*cache_page_tables=*/true);
  MmuFixture uncached(ReloadStrategy::kHardwareHtabWalk, true, /*cache_page_tables=*/false);
  cached.backing.MapPage(0x00010, 0x500);
  uncached.backing.MapPage(0x00010, 0x500);
  cached.mmu.Access(EffAddr(0x00010000), AccessKind::kLoad);
  uncached.mmu.Access(EffAddr(0x00010000), AccessKind::kLoad);
  // The cached variant allocated data-cache lines for HTAB/PTE traffic; the uncached one
  // only has the payload's single line.
  EXPECT_GT(cached.machine.dcache().ValidLineCount(),
            uncached.machine.dcache().ValidLineCount());
  EXPECT_GT(uncached.machine.dcache().stats().uncached_accesses, 0u);
}

}  // namespace
}  // namespace ppcmm
