// Idle task tests: zombie HTAB reclaim (§7) and the three page-clearing policies (§9),
// including the cache-pollution behaviour that made the cached variant a pessimization.

#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/kernel/layout.h"

namespace ppcmm {
namespace {

TaskId SpawnStd(Kernel& kernel, const char* name) {
  const TaskId id = kernel.CreateTask(name);
  kernel.Exec(id, ExecImage{.text_pages = 8, .data_pages = 64, .stack_pages = 4});
  kernel.SwitchTo(id);
  return id;
}

// Produces a pile of zombies: map+touch+munmap above the lazy cutoff, repeatedly.
void MakeZombies(Kernel& kernel, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    const uint32_t start = kernel.Mmap(30);
    for (uint32_t i = 0; i < 30; ++i) {
      kernel.UserTouch(EffAddr::FromPage(start + i), AccessKind::kStore);
    }
    kernel.Munmap(start, 30);
  }
}

TEST(IdleTest, ReclaimSweepsZombies) {
  OptimizationConfig config = OptimizationConfig::OnlyIdleReclaim();
  System sys(MachineConfig::Ppc604(185), config);
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel, "t");
  MakeZombies(kernel, 4);
  const uint32_t valid_before = sys.mmu().htab().ValidCount();
  const uint32_t live_before = sys.mmu().htab().LiveCount(kernel.vsids());
  ASSERT_GT(valid_before, live_before) << "test needs zombies to reclaim";

  // Enough idle budget to sweep the whole table.
  kernel.RunIdle(Cycles(2'000'000));
  EXPECT_GT(sys.counters().zombies_reclaimed, 0u);
  EXPECT_EQ(sys.mmu().htab().ValidCount(), sys.mmu().htab().LiveCount(kernel.vsids()));
}

TEST(IdleTest, ReclaimEnablesFreeSlotReloads) {
  // §7: with reclaim, "the hash table reload code was usually able to find an empty TLB
  // entry and was able to avoid replacing valid PTEs" — evict ratio drops.
  auto churn = [](System& sys) {
    Kernel& kernel = sys.kernel();
    SpawnStd(kernel, "t");
    for (int round = 0; round < 60; ++round) {
      const uint32_t start = kernel.Mmap(64);
      for (uint32_t i = 0; i < 64; ++i) {
        kernel.UserTouch(EffAddr::FromPage(start + i), AccessKind::kStore);
      }
      kernel.Munmap(start, 64);
      // I/O pause: the idle task gets to run, as it would between compiles.
      kernel.RunIdle(Cycles(40'000));
    }
    return sys.counters().EvictToReloadRatio();
  };

  OptimizationConfig no_reclaim = OptimizationConfig::OnlyLazyFlush(20);
  OptimizationConfig with_reclaim = OptimizationConfig::OnlyIdleReclaim();
  // Shrink the HTAB so the zombie problem bites within a small test: 64 PTEGs = 512 PTEs.
  MachineConfig mc = MachineConfig::Ppc604(185);
  mc.htab_ptegs = 64;
  System sys_no(mc, no_reclaim);
  System sys_yes(mc, with_reclaim);
  const double ratio_no = churn(sys_no);
  const double ratio_yes = churn(sys_yes);
  EXPECT_GT(ratio_no, ratio_yes);
  EXPECT_GT(sys_yes.counters().zombies_reclaimed, 0u);
  EXPECT_GT(sys_yes.counters().htab_zombie_overwrites + sys_yes.counters().zombies_reclaimed,
            0u);
}

TEST(IdleTest, PrezeroedListFeedsGetFreePage) {
  System sys(MachineConfig::Ppc604(185),
             OptimizationConfig::OnlyIdleZero(IdleZeroPolicy::kUncachedWithList));
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel, "t");
  kernel.RunIdle(Cycles(500'000));
  EXPECT_GT(kernel.mem().PrezeroedCount(), 0u);
  EXPECT_GT(sys.counters().pages_zeroed_in_idle, 0u);

  const HwCounters before = sys.counters();
  kernel.UserTouchRange(EffAddr(kUserDataBase), 8 * kPageSize, kPageSize, AccessKind::kStore);
  const HwCounters delta = sys.counters().Diff(before);
  EXPECT_EQ(delta.prezeroed_page_hits, 8u);
  EXPECT_EQ(delta.pages_zeroed_on_demand, 0u);
}

TEST(IdleTest, PrezeroedPagesAreActuallyZero) {
  System sys(MachineConfig::Ppc604(185),
             OptimizationConfig::OnlyIdleZero(IdleZeroPolicy::kUncachedWithList));
  Kernel& kernel = sys.kernel();
  const TaskId t = SpawnStd(kernel, "t");
  kernel.RunIdle(Cycles(300'000));
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kLoad);
  const auto pte = kernel.task(t).mm->page_table->LookupQuiet(EffAddr(kUserDataBase));
  ASSERT_TRUE(pte.has_value());
  EXPECT_TRUE(sys.machine().memory().FrameIsZero(pte->frame));
}

TEST(IdleTest, UncachedNoListDoesNotFeedAllocatorOrPolluteCache) {
  System sys(MachineConfig::Ppc604(185),
             OptimizationConfig::OnlyIdleZero(IdleZeroPolicy::kUncachedNoList));
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel, "t");
  const uint32_t dcache_lines_before = sys.machine().dcache().ValidLineCount();
  kernel.RunIdle(Cycles(500'000));
  EXPECT_GT(sys.counters().pages_zeroed_in_idle, 0u);
  EXPECT_EQ(kernel.mem().PrezeroedCount(), 0u);
  // Uncached zeroing must not have grown the data cache's contents beyond the few lines the
  // idle loop's own page-table reloads bring in (a zeroed page would be 128 lines).
  EXPECT_LE(sys.machine().dcache().ValidLineCount(), dcache_lines_before + 32);

  const HwCounters before = sys.counters();
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);
  EXPECT_EQ(sys.counters().Diff(before).prezeroed_page_hits, 0u);
}

TEST(IdleTest, CachedZeroingPollutesTheDataCache) {
  System sys_cached(MachineConfig::Ppc604(185),
                    OptimizationConfig::OnlyIdleZero(IdleZeroPolicy::kCached));
  System sys_uncached(MachineConfig::Ppc604(185),
                      OptimizationConfig::OnlyIdleZero(IdleZeroPolicy::kUncachedWithList));

  for (System* sys : {&sys_cached, &sys_uncached}) {
    Kernel& kernel = sys->kernel();
    SpawnStd(kernel, "t");
    // Build a warm user working set, then let the idle task zero pages.
    kernel.UserTouchRange(EffAddr(kUserDataBase), 8 * kPageSize, 32, AccessKind::kStore);
    const HwCounters warm = sys->counters();
    kernel.UserTouchRange(EffAddr(kUserDataBase), 8 * kPageSize, 32, AccessKind::kLoad);
    const uint64_t warm_misses = sys->machine().dcache().stats().misses;
    kernel.RunIdle(Cycles(400'000));
    // Re-walk the working set: the cached zeroer evicted it, the uncached one did not.
    kernel.UserTouchRange(EffAddr(kUserDataBase), 8 * kPageSize, 32, AccessKind::kLoad);
    (void)warm;
    (void)warm_misses;
  }
  // Compare the post-idle rewalk misses via total dcache misses: the cached variant must
  // have strictly more.
  EXPECT_GT(sys_cached.machine().dcache().stats().misses,
            sys_uncached.machine().dcache().stats().misses);
}

TEST(IdleTest, IdleZeroRespectsListCapAndMemoryHeadroom) {
  System sys(MachineConfig::Ppc604(185),
             OptimizationConfig::OnlyIdleZero(IdleZeroPolicy::kUncachedWithList));
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel, "t");
  kernel.RunIdle(Cycles(2'000'000));
  EXPECT_LE(kernel.mem().PrezeroedCount(), kPrezeroListCap);
}

TEST(IdleTest, IdleOffDoesNothingButSpin) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::Baseline());
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel, "t");
  const Cycles before = sys.machine().Now();
  kernel.RunIdle(Cycles(10'000));
  EXPECT_GE((sys.machine().Now() - before).value, 10'000u);
  EXPECT_EQ(sys.counters().pages_zeroed_in_idle, 0u);
  EXPECT_EQ(sys.counters().zombies_reclaimed, 0u);
  EXPECT_EQ(sys.counters().idle_invocations, 1u);
}

}  // namespace
}  // namespace ppcmm
