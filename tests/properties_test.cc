// Cross-cutting property tests, parameterized over machine models and optimization presets:
//
//   * translation consistency — after any operation mix, every present PTE translates to
//     exactly the frame the Linux tree records, through any cached path (TLB, HTAB);
//   * determinism — identical seeds produce identical cycle counts and counters;
//   * memory conservation — exiting every task returns the allocator to its start state;
//   * zombie safety — no live context ever resolves through a retired VSID.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/sim/rng.h"

namespace ppcmm {
namespace {

struct PresetCase {
  std::string name;
  OptimizationConfig config;
};

std::vector<PresetCase> AllPresets() {
  return {
      {"baseline", OptimizationConfig::Baseline()},
      {"bat", OptimizationConfig::OnlyBatMapping()},
      {"scatter", OptimizationConfig::OnlyTunedScatter()},
      {"fast_handlers", OptimizationConfig::OnlyFastHandlers()},
      {"direct_reload", OptimizationConfig::OnlyDirectReload()},
      {"lazy_flush", OptimizationConfig::OnlyLazyFlush(20)},
      {"idle_reclaim", OptimizationConfig::OnlyIdleReclaim()},
      {"uncached_pt", OptimizationConfig::OnlyUncachedPageTables()},
      {"idle_zero", OptimizationConfig::OnlyIdleZero(IdleZeroPolicy::kUncachedWithList)},
      {"all", OptimizationConfig::AllOptimizations()},
      {"all_uncached_pt", OptimizationConfig::AllPlusUncachedPageTables()},
      {"all_preloads",
       [] {
         OptimizationConfig c = OptimizationConfig::AllOptimizations();
         c.cache_preload_hints = true;
         return c;
       }()},
      {"all_fb_bat",
       [] {
         OptimizationConfig c = OptimizationConfig::AllOptimizations();
         c.framebuffer_bat = true;
         return c;
       }()},
  };
}

using CaseParam = std::tuple<int /*preset index*/, int /*cpu: 0=604, 1=603*/>;

class PropertySweep : public ::testing::TestWithParam<CaseParam> {
 protected:
  MachineConfig Machine() const {
    return std::get<1>(GetParam()) == 0 ? MachineConfig::Ppc604(185)
                                        : MachineConfig::Ppc603(180);
  }
  OptimizationConfig Config() const { return AllPresets()[std::get<0>(GetParam())].config; }
};

// Drives a random but deterministic mix of kernel operations.
void DriveWorkload(System& sys, uint64_t seed, int steps) {
  Kernel& kernel = sys.kernel();
  Rng rng(seed);
  std::vector<TaskId> tasks;
  std::vector<std::pair<uint32_t, uint32_t>> live_maps;  // (start, pages)

  auto spawn = [&] {
    // Built with += rather than operator+: GCC 12's -Wrestrict false-fires on the
    // inlined "literal + to_string" concatenation under -O2.
    std::string name = "w";
    name += std::to_string(tasks.size());
    const TaskId id = kernel.CreateTask(name);
    kernel.Exec(id, ExecImage{.text_pages = 8, .data_pages = 48, .stack_pages = 4});
    kernel.SwitchTo(id);
    tasks.push_back(id);
  };
  spawn();
  spawn();

  for (int i = 0; i < steps; ++i) {
    switch (rng.NextBelow(8)) {
      case 0:
        kernel.NullSyscall();
        break;
      case 1:
        kernel.SwitchTo(tasks[rng.NextBelow(tasks.size())]);
        break;
      case 2: {
        const uint32_t offset = static_cast<uint32_t>(rng.NextBelow(40)) * kPageSize;
        kernel.UserTouch(EffAddr(kUserDataBase + offset),
                         rng.Chance(1, 2) ? AccessKind::kStore : AccessKind::kLoad);
        break;
      }
      case 3: {
        const uint32_t pages = 8 + static_cast<uint32_t>(rng.NextBelow(40));
        const uint32_t start = kernel.Mmap(pages);
        for (uint32_t p = 0; p < pages; p += 3) {
          kernel.UserTouch(EffAddr::FromPage(start + p), AccessKind::kStore);
        }
        live_maps.emplace_back(start, pages);
        break;
      }
      case 4:
        if (!live_maps.empty()) {
          const size_t pick = rng.NextBelow(live_maps.size());
          // Unmapping belongs to whoever mapped it; in this driver all maps are made by the
          // current task, so only unmap when it still exists. To keep it simple the driver
          // never exits a task that holds maps; maps are unmapped by the task that made
          // them because we only mmap/munmap on the current task between switches.
          kernel.Munmap(live_maps[pick].first, live_maps[pick].second);
          live_maps.erase(live_maps.begin() + static_cast<long>(pick));
        }
        break;
      case 5:
        kernel.UserExecute(64);
        break;
      case 6:
        kernel.RunIdle(Cycles(2000));
        break;
      case 7: {
        const TaskId child = kernel.Fork(kernel.current());
        kernel.SwitchTo(child);
        kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);
        kernel.Exit(child);
        kernel.SwitchTo(tasks[0]);
        live_maps.clear();  // maps belonged to various tasks; stop tracking across forks
        break;
      }
    }
  }
  for (const TaskId id : tasks) {
    kernel.Exit(id);
  }
}

TEST_P(PropertySweep, TranslationConsistency) {
  System sys(Machine(), Config());
  Kernel& kernel = sys.kernel();
  const TaskId t = kernel.CreateTask("t");
  kernel.Exec(t, ExecImage{.text_pages = 8, .data_pages = 64, .stack_pages = 4});
  kernel.SwitchTo(t);
  Rng rng(77);
  for (int i = 0; i < 400; ++i) {
    const uint32_t offset = static_cast<uint32_t>(rng.NextBelow(60)) * kPageSize +
                            static_cast<uint32_t>(rng.NextBelow(64)) * 64;
    const EffAddr ea(kUserDataBase + offset);
    kernel.UserTouch(ea, rng.Chance(1, 2) ? AccessKind::kStore : AccessKind::kLoad);
    // Whatever path served the access, the reachable physical page must be what the Linux
    // tree says.
    const auto pte = kernel.task(t).mm->page_table->LookupQuiet(ea);
    ASSERT_TRUE(pte.has_value() && pte->present);
    const auto pa = sys.mmu().Probe(ea, AccessKind::kLoad);
    ASSERT_TRUE(pa.has_value());
    ASSERT_EQ(pa->PageFrame(), pte->frame) << "stale translation at 0x" << std::hex << ea.value;
  }
  kernel.Exit(t);
}

// tlbia, tlbie and framebuffer-BAT rewrites thrown into the middle of a touch stream must
// be architecturally invisible: after every single operation, every reachable page still
// translates to exactly the frame the Linux tree records, and the aperture reaches the
// same physical frames through the BAT as through PTEs.
TEST_P(PropertySweep, TlbiaAndBatRewriteConsistency) {
  System sys(Machine(), Config());
  Kernel& kernel = sys.kernel();
  const TaskId t = kernel.CreateTask("t");
  kernel.Exec(t, ExecImage{.text_pages = 8, .data_pages = 48, .stack_pages = 4});
  kernel.SwitchTo(t);
  const uint32_t fb_start = kernel.MapFramebuffer();
  const uint32_t fb_first_frame = kernel.FramebufferFirstFrame();
  Rng rng(515);
  bool bat_on = kernel.FramebufferBatActive();

  const auto assert_consistent = [&](EffAddr ea) {
    // Re-touch first: after a tlbia/tlbie/BAT rewrite the access must transparently
    // re-fault or reload (a framebuffer page previously served by the BAT has no PTE
    // until this touch installs one).
    kernel.UserTouch(ea, AccessKind::kLoad);
    const auto pa = sys.mmu().Probe(ea, AccessKind::kLoad);
    ASSERT_TRUE(pa.has_value()) << "unreachable at 0x" << std::hex << ea.value;
    if (ea.EffPageNumber() >= fb_start && ea.EffPageNumber() < fb_start + 512) {
      ASSERT_EQ(pa->PageFrame(), fb_first_frame + (ea.EffPageNumber() - fb_start))
          << "framebuffer aperture mistranslated at 0x" << std::hex << ea.value;
      if (bat_on) {
        return;  // BAT path: no PTE required
      }
    }
    const auto pte = kernel.task(t).mm->page_table->LookupQuiet(ea);
    ASSERT_TRUE(pte.has_value() && pte->present);
    ASSERT_EQ(pa->PageFrame(), pte->frame) << "stale translation at 0x" << std::hex << ea.value;
  };

  EffAddr last_touched(kUserDataBase);
  for (int i = 0; i < 500; ++i) {
    switch (rng.NextBelow(6)) {
      case 0:
      case 1: {  // ordinary data touch
        const uint32_t offset = static_cast<uint32_t>(rng.NextBelow(44)) * kPageSize;
        last_touched = EffAddr(kUserDataBase + offset);
        kernel.UserTouch(last_touched,
                         rng.Chance(1, 2) ? AccessKind::kStore : AccessKind::kLoad);
        break;
      }
      case 2: {  // framebuffer touch: BAT path or PTE path depending on the rewrites below
        const uint32_t page = fb_start + static_cast<uint32_t>(rng.NextBelow(512));
        last_touched = EffAddr::FromPage(page);
        kernel.UserTouch(last_touched,
                         rng.Chance(1, 2) ? AccessKind::kStore : AccessKind::kLoad);
        break;
      }
      case 3:  // BAT rewrite mid-stream, both directions
        bat_on = !bat_on;
        kernel.SetFramebufferBat(bat_on);
        ASSERT_EQ(kernel.FramebufferBatActive(), bat_on);
        break;
      case 4:  // tlbie the page we just used
        sys.mmu().TlbInvalidatePage(last_touched);
        break;
      case 5:  // wipe both TLBs outright
        sys.mmu().TlbInvalidateAll();
        break;
    }
    assert_consistent(last_touched);
  }
  kernel.Exit(t);
}

TEST_P(PropertySweep, DeterministicReplay) {
  System a(Machine(), Config());
  System b(Machine(), Config());
  DriveWorkload(a, 4242, 300);
  DriveWorkload(b, 4242, 300);
  EXPECT_EQ(a.counters().cycles, b.counters().cycles);
  EXPECT_EQ(a.counters().dtlb_misses, b.counters().dtlb_misses);
  EXPECT_EQ(a.counters().htab_reloads, b.counters().htab_reloads);
  EXPECT_EQ(a.counters().page_faults, b.counters().page_faults);
  EXPECT_EQ(a.counters().htab_evicts, b.counters().htab_evicts);
}

TEST_P(PropertySweep, MemoryConservation) {
  System sys(Machine(), Config());
  Kernel& kernel = sys.kernel();
  const uint32_t free_before = kernel.allocator().FreeCount();
  DriveWorkload(sys, 1717, 250);
  EXPECT_EQ(kernel.TaskCount(), 0u);
  // The pre-zeroed list may legitimately hold pages; everything else must be back.
  EXPECT_EQ(kernel.allocator().FreeCount() + kernel.mem().PrezeroedCount(), free_before);
}

TEST_P(PropertySweep, ZombieVsidsNeverResolve) {
  System sys(Machine(), Config());
  Kernel& kernel = sys.kernel();
  // Cycle many short-lived tasks; after each exit, the retired VSIDs must be dead.
  for (int i = 0; i < 30; ++i) {
    const TaskId t = kernel.CreateTask("z");
    kernel.Exec(t, ExecImage{.text_pages = 4, .data_pages = 16, .stack_pages = 2});
    kernel.SwitchTo(t);
    kernel.UserTouchRange(EffAddr(kUserDataBase), 8 * kPageSize, kPageSize,
                          AccessKind::kStore);
    const ContextId ctx = kernel.task(t).mm->context;
    kernel.Exit(t);
    for (uint32_t seg = 0; seg < kFirstKernelSegment; ++seg) {
      EXPECT_FALSE(kernel.vsids().IsLive(kernel.vsids().UserVsid(ctx, seg)));
    }
  }
}

std::string CaseName(const ::testing::TestParamInfo<CaseParam>& info) {
  return AllPresets()[std::get<0>(info.param)].name +
         (std::get<1>(info.param) == 0 ? "_604" : "_603");
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, PropertySweep,
    ::testing::Combine(::testing::Range(0, static_cast<int>(AllPresets().size())),
                       ::testing::Values(0, 1)),
    CaseName);

}  // namespace
}  // namespace ppcmm
