// Flush strategy tests (§7): eager per-page HTAB searches vs. lazy VSID retirement, the
// range cutoff, zombie creation, and the correctness property that no stale translation is
// ever reachable after a flush.

#include <gtest/gtest.h>

#include <string>

#include "src/core/system.h"
#include "src/kernel/layout.h"

namespace ppcmm {
namespace {

TaskId SpawnStd(Kernel& kernel, const char* name) {
  const TaskId id = kernel.CreateTask(name);
  kernel.Exec(id, ExecImage{.text_pages = 8, .data_pages = 32, .stack_pages = 4});
  kernel.SwitchTo(id);
  return id;
}

// Maps and touches `pages` pages at a fixed mmap address, returning the start page.
uint32_t MapAndTouch(Kernel& kernel, uint32_t pages) {
  const uint32_t start = kernel.Mmap(pages);
  for (uint32_t i = 0; i < pages; ++i) {
    kernel.UserTouch(EffAddr::FromPage(start + i), AccessKind::kStore);
  }
  return start;
}

TEST(FlushTest, EagerMunmapSearchesHtabPerPage) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::Baseline());
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel, "t");
  const uint32_t start = MapAndTouch(kernel, 40);
  // Every page pays the HTAB search: the probes plus the invalidating store when its entry
  // is resident, all 16 slots of both PTEGs when it is not.
  uint64_t expected_refs = 0;
  for (uint32_t i = 0; i < 40; ++i) {
    NullMemCharger uncharged;
    const VirtPage vp = sys.mmu().segments().Resolve(EffAddr::FromPage(start + i));
    const HtabSearchResult found = sys.mmu().htab().Search(vp, uncharged);
    expected_refs += found.found ? found.memory_refs + 1 : 2 * kPtesPerPteg;
  }
  const HwCounters before = sys.counters();
  kernel.Munmap(start, 40);
  const HwCounters delta = sys.counters().Diff(before);
  EXPECT_EQ(delta.htab_flush_memory_refs, expected_refs);
  EXPECT_EQ(delta.tlb_context_flushes, 0u);
  EXPECT_EQ(delta.tlb_page_flushes, 40u);
}

TEST(FlushTest, LazyMunmapAboveCutoffRetiresContext) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::OnlyLazyFlush(20));
  Kernel& kernel = sys.kernel();
  const TaskId t = SpawnStd(kernel, "t");
  const uint32_t start = MapAndTouch(kernel, 40);
  const ContextId ctx_before = kernel.task(t).mm->context;
  const HwCounters before = sys.counters();
  kernel.Munmap(start, 40);
  const HwCounters delta = sys.counters().Diff(before);
  EXPECT_EQ(delta.tlb_context_flushes, 1u);
  EXPECT_EQ(delta.tlb_page_flushes, 0u);
  EXPECT_EQ(delta.htab_flush_memory_refs, 0u);
  EXPECT_NE(kernel.task(t).mm->context, ctx_before);
  // The segment registers follow the new context immediately.
  EXPECT_EQ(sys.mmu().segments().Get(0),
            kernel.vsids().UserVsid(kernel.task(t).mm->context, 0));
}

TEST(FlushTest, LazyMunmapBelowCutoffStaysEager) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::OnlyLazyFlush(20));
  Kernel& kernel = sys.kernel();
  const TaskId t = SpawnStd(kernel, "t");
  const uint32_t start = MapAndTouch(kernel, 10);
  const ContextId ctx_before = kernel.task(t).mm->context;
  const HwCounters before = sys.counters();
  kernel.Munmap(start, 10);
  const HwCounters delta = sys.counters().Diff(before);
  EXPECT_EQ(delta.tlb_context_flushes, 0u);
  EXPECT_EQ(delta.tlb_page_flushes, 10u);
  EXPECT_EQ(kernel.task(t).mm->context, ctx_before);
}

TEST(FlushTest, LazyFlushLeavesZombiesInHtab) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::OnlyLazyFlush(20));
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel, "t");
  const uint32_t start = MapAndTouch(kernel, 40);
  const uint32_t valid_before = sys.mmu().htab().ValidCount();
  kernel.Munmap(start, 40);
  // Valid bits are untouched — the entries are zombies now.
  EXPECT_EQ(sys.mmu().htab().ValidCount(), valid_before);
  EXPECT_LT(sys.mmu().htab().LiveCount(kernel.vsids()), valid_before);
}

TEST(FlushTest, EagerFlushPhysicallyInvalidates) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::Baseline());
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel, "t");
  const uint32_t start = MapAndTouch(kernel, 40);
  const uint32_t valid_before = sys.mmu().htab().ValidCount();
  kernel.Munmap(start, 40);
  EXPECT_LE(sys.mmu().htab().ValidCount(), valid_before - 40);
}

TEST(FlushTest, NoStaleTranslationAfterLazyFlush) {
  // The correctness core of §7: after a lazy whole-context flush, the old translations must
  // be unreachable even though they are still physically present in the TLB and HTAB.
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::OnlyLazyFlush(20));
  Kernel& kernel = sys.kernel();
  const TaskId t = SpawnStd(kernel, "t");
  const uint32_t start = MapAndTouch(kernel, 40);
  const EffAddr probe_ea = EffAddr::FromPage(start + 5);
  const uint32_t old_frame = kernel.task(t).mm->page_table->LookupQuiet(probe_ea)->frame;
  kernel.Munmap(start, 40);

  // Remap the same address range; touching it must produce a fresh fault and (possibly)
  // a different frame — never the zombie translation.
  kernel.Mmap(40, MmapOptions{.fixed_page = start});
  const HwCounters before = sys.counters();
  kernel.UserTouch(probe_ea, AccessKind::kStore);
  EXPECT_EQ(sys.counters().Diff(before).page_faults, 1u);
  const uint32_t new_frame = kernel.task(t).mm->page_table->LookupQuiet(probe_ea)->frame;
  const auto pa = sys.mmu().Probe(probe_ea, AccessKind::kLoad);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(pa->PageFrame(), new_frame);
  (void)old_frame;
}

TEST(FlushTest, ExecFlushesWholeContext) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::OnlyLazyFlush(20));
  Kernel& kernel = sys.kernel();
  const TaskId t = SpawnStd(kernel, "t");
  MapAndTouch(kernel, 30);
  const ContextId ctx_before = kernel.task(t).mm->context;
  kernel.Exec(t, ExecImage{.text_pages = 8, .data_pages = 8, .stack_pages = 2});
  EXPECT_NE(kernel.task(t).mm->context, ctx_before);
  EXPECT_FALSE(kernel.vsids().IsLive(kernel.vsids().UserVsid(ctx_before, 0)));
}

TEST(FlushTest, CowFaultScrubsStaleReadOnlyEntry) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Kernel& kernel = sys.kernel();
  const TaskId parent = SpawnStd(kernel, "p");
  const EffAddr ea(kUserDataBase);
  kernel.UserTouch(ea, AccessKind::kStore);
  const TaskId child = kernel.Fork(parent);
  kernel.SwitchTo(child);
  kernel.UserTouch(ea, AccessKind::kLoad);   // caches the read-only translation
  kernel.UserTouch(ea, AccessKind::kStore);  // COW fault must scrub and remap
  // The write must land in the child's new frame through the MMU path.
  const uint32_t child_frame = kernel.task(child).mm->page_table->LookupQuiet(ea)->frame;
  const auto pa = sys.mmu().Probe(ea, AccessKind::kStore);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(pa->PageFrame(), child_frame);
  // And a repeated store no longer faults.
  const HwCounters before = sys.counters();
  kernel.UserTouch(ea, AccessKind::kStore);
  EXPECT_EQ(sys.counters().Diff(before).page_faults, 0u);
}

TEST(FlushTest, RangeFlushBlindlySearchesUnmappedPages) {
  // The unoptimized kernel searched the HTAB for every page in the range even if nothing
  // was mapped there (§7).
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::Baseline());
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel, "t");
  const uint32_t start = kernel.Mmap(50);  // mapped VMA, but never touched: no PTEs anywhere
  const HwCounters before = sys.counters();
  kernel.Munmap(start, 50);
  const HwCounters delta = sys.counters().Diff(before);
  EXPECT_EQ(delta.htab_flush_memory_refs, 50u * 2 * kPtesPerPteg);
}

TEST(FlushTest, ForkAndExitFlushPerPolicy) {
  // Fork write-protects the parent's writable pages: under the cutoff each takes its own
  // page flush and shootdown round, over it the lazy kernel flushes the whole context.
  // Exit retires the context: the lazy kernel opens no flush scope (its cycles stay in
  // the exit cell), the eager kernel flushes every page.
  MachineConfig machine = MachineConfig::Ppc604(185);
  machine.ncpus = 2;
  for (const bool lazy : {true, false}) {
    for (const uint32_t pages : {8u, 32u}) {
      SCOPED_TRACE(std::string(lazy ? "lazy/" : "eager/") + std::to_string(pages));
      System sys(machine, lazy ? OptimizationConfig::OnlyLazyFlush(20)
                               : OptimizationConfig::Baseline());
      const CycleLedger& ledger = sys.machine().attr();
      sys.machine().attr().SetEnabled(true);
      Kernel& kernel = sys.kernel();
      const TaskId parent = kernel.CreateTask("p");
      kernel.Exec(parent, ExecImage{.text_pages = 1, .data_pages = pages, .stack_pages = 1});
      kernel.SwitchTo(parent);
      kernel.UserTouchRun(EffAddr(kUserDataBase), kPageSize, pages, AccessKind::kStore);
      const auto scopes = [&](AttrCause cause) { return ledger.Latency(cause).TotalCount(); };

      const uint64_t eager = scopes(AttrCause::kRangeFlushEager);
      const uint64_t ctx = scopes(AttrCause::kContextFlushLazy);
      HwCounters before = sys.counters();
      const TaskId child = kernel.Fork(parent);
      const bool context_flush = lazy && pages > 20;
      EXPECT_EQ(scopes(AttrCause::kRangeFlushEager) - eager, context_flush ? 0u : pages);
      EXPECT_EQ(scopes(AttrCause::kContextFlushLazy) - ctx, context_flush ? 1u : 0u);
      EXPECT_EQ(sys.counters().Diff(before).tlb_shootdown_requests, context_flush ? 0u : pages);

      before = sys.counters();
      kernel.Exit(child);
      EXPECT_EQ(sys.counters().Diff(before).tlb_context_flushes, lazy ? 1u : 0u);
      EXPECT_EQ(scopes(AttrCause::kRangeFlushEager) - eager,
                (context_flush ? 0u : pages) + (lazy ? 0u : 1u));
      EXPECT_EQ(scopes(AttrCause::kContextFlushLazy) - ctx, context_flush ? 1u : 0u);
    }
  }
}

}  // namespace
}  // namespace ppcmm
