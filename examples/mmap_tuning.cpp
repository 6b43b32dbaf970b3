// mmap()/flush tuning explorer: the §7 tradeoff surface.
//
//   $ ./mmap_tuning
//
// Two sweeps on a 604/185:
//   1. map size x flush strategy — where the eager per-page flush cost explodes and the
//      lazy whole-context flush stays flat;
//   2. cutoff x map size — the tunable itself: for each cutoff, which map sizes go lazy,
//      and what the residual cost of over-flushing (invalidating translations that were
//      still live) looks like on the following faults.

#include <cstdio>
#include <vector>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/workloads/report.h"

namespace {

// One map/unmap cycle at a fixed address; returns (munmap+mmap time, refault time).
struct CycleCost {
  double flush_us = 0;    // the munmap + mmap pair
  double refault_us = 0;  // re-touching half the pages afterwards
};

CycleCost RunCycle(ppcmm::System& system, uint32_t pages, uint32_t iters) {
  using namespace ppcmm;
  Kernel& kernel = system.kernel();
  const TaskId t = kernel.CreateTask("mmap");
  kernel.Exec(t, ExecImage{.text_pages = 4, .data_pages = 16, .stack_pages = 2});
  kernel.SwitchTo(t);
  const FileId file = kernel.page_cache().CreateFile(pages);
  const uint32_t fixed = (kUserMmapBase >> kPageShift) + 0x100;

  CycleCost cost;
  kernel.Mmap(pages, MmapOptions{.fixed_page = fixed, .file = file, .writable = false});
  for (uint32_t p = 0; p < pages; p += 2) {
    kernel.UserTouch(EffAddr::FromPage(fixed + p), AccessKind::kLoad);
  }
  for (uint32_t i = 0; i < iters; ++i) {
    cost.flush_us += system.TimeMicros([&] {
      kernel.Munmap(fixed, pages);
      kernel.Mmap(pages, MmapOptions{.fixed_page = fixed, .file = file, .writable = false});
    });
    cost.refault_us += system.TimeMicros([&] {
      for (uint32_t p = 0; p < pages; p += 2) {
        kernel.UserTouch(EffAddr::FromPage(fixed + p), AccessKind::kLoad);
      }
    });
  }
  cost.flush_us /= iters;
  cost.refault_us /= iters;
  kernel.Exit(t);
  return cost;
}

}  // namespace

int main() {
  using namespace ppcmm;

  std::printf("Sweep 1: flush cost vs map size (604/185, translations half-populated)\n\n");
  TextTable size_table({"map pages", "eager flush", "lazy flush", "eager refault",
                        "lazy refault", "speedup"});
  for (const uint32_t pages : {16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
    System eager_sys(MachineConfig::Ppc604(185), OptimizationConfig::AllButLazyFlush());
    System lazy_sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
    const CycleCost e = RunCycle(eager_sys, pages, 6);
    const CycleCost l = RunCycle(lazy_sys, pages, 6);
    size_table.AddRow({std::to_string(pages), TextTable::Us(e.flush_us),
                       TextTable::Us(l.flush_us), TextTable::Us(e.refault_us),
                       TextTable::Us(l.refault_us),
                       TextTable::Num(e.flush_us / l.flush_us, 1) + "x"});
  }
  std::printf("%s\n", size_table.ToString().c_str());

  std::printf("Sweep 2: the cutoff knob at a 48-page map (the paper settled on 20)\n\n");
  TextTable cutoff_table({"cutoff", "flush path", "flush cost", "refault cost", "total"});
  for (const uint32_t cutoff : {0u, 8u, 16u, 20u, 32u, 47u, 64u}) {
    OptimizationConfig config = OptimizationConfig::AllOptimizations();
    config.range_flush_cutoff = cutoff;
    System system(MachineConfig::Ppc604(185), config);
    const HwCounters before = system.counters();
    const CycleCost c = RunCycle(system, 48, 6);
    const HwCounters delta = system.counters().Diff(before);
    const bool lazy_path = delta.tlb_context_flushes > 0;
    cutoff_table.AddRow({cutoff == 0 ? "off" : std::to_string(cutoff),
                         lazy_path ? "whole-context" : "per-page", TextTable::Us(c.flush_us),
                         TextTable::Us(c.refault_us),
                         TextTable::Us(c.flush_us + c.refault_us)});
  }
  std::printf("%s\n", cutoff_table.ToString().c_str());
  std::printf("The refault column is the price of over-flushing: the whole-context path\n"
              "also killed translations outside the unmapped range, which fault back in on\n"
              "the next touch. The paper found the trade overwhelmingly worth it (\"no cost\n"
              "for losing them\" — those entries were rarely being used anyway).\n");
  return 0;
}
