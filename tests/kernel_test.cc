// Kernel integration tests: process lifecycle, demand paging, copy-on-write fork, pipes,
// files, mmap — with data integrity verified through the simulated physical memory.

#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/sim/check.h"

namespace ppcmm {
namespace {

System MakeSystem(const OptimizationConfig& config = OptimizationConfig::AllOptimizations()) {
  return System(MachineConfig::Ppc604(185), config);
}

TaskId SpawnStd(Kernel& kernel, const char* name) {
  const TaskId id = kernel.CreateTask(name);
  kernel.Exec(id, ExecImage{.text_pages = 8, .data_pages = 32, .stack_pages = 4});
  kernel.SwitchTo(id);
  return id;
}

TEST(KernelTest, CreateExecSwitchRun) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  const TaskId t = SpawnStd(kernel, "t");
  EXPECT_EQ(kernel.current(), t);
  kernel.UserExecute(100);
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);
  EXPECT_GT(sys.counters().cycles, 0u);
  EXPECT_GT(sys.counters().page_faults, 0u);
}

TEST(KernelTest, DemandFaultMapsZeroedPage) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  const TaskId t = SpawnStd(kernel, "t");
  const EffAddr ea(kUserDataBase + 3 * kPageSize);
  kernel.UserTouch(ea, AccessKind::kLoad);
  const auto pte = kernel.task(t).mm->page_table->LookupQuiet(ea);
  ASSERT_TRUE(pte.has_value());
  EXPECT_TRUE(pte->present);
  EXPECT_TRUE(sys.machine().memory().FrameIsZero(pte->frame));
  // A second touch is not a fault.
  const HwCounters before = sys.counters();
  kernel.UserTouch(ea, AccessKind::kLoad);
  EXPECT_EQ(sys.counters().Diff(before).page_faults, 0u);
}

TEST(KernelTest, FaultOutsideVmaThrows) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel, "t");
  EXPECT_THROW(kernel.UserTouch(EffAddr(0x30000000), AccessKind::kLoad), CheckFailure);
}

TEST(KernelTest, WriteToReadOnlyVmaThrows) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  const TaskId t = SpawnStd(kernel, "t");
  const EffAddr text(kUserTextBase);
  kernel.UserTouch(text, AccessKind::kLoad);  // text is read-only
  EXPECT_THROW(kernel.UserTouch(text, AccessKind::kStore), CheckFailure);
  (void)t;
}

TEST(KernelTest, ForkSharesThenCopiesOnWrite) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  const TaskId parent = SpawnStd(kernel, "parent");
  const EffAddr ea(kUserDataBase);
  kernel.UserTouch(ea, AccessKind::kStore);
  const uint32_t parent_frame = kernel.task(parent).mm->page_table->LookupQuiet(ea)->frame;
  // Write a marker through simulated memory.
  sys.machine().memory().Write32(PhysAddr::FromFrame(parent_frame), 0xFEEDFACE);

  const TaskId child = kernel.Fork(parent);
  // Both PTEs now point at the same frame, read-only COW.
  const auto parent_pte = kernel.task(parent).mm->page_table->LookupQuiet(ea);
  const auto child_pte = kernel.task(child).mm->page_table->LookupQuiet(ea);
  ASSERT_TRUE(parent_pte && child_pte);
  EXPECT_EQ(parent_pte->frame, child_pte->frame);
  EXPECT_TRUE(parent_pte->cow);
  EXPECT_FALSE(parent_pte->writable);
  EXPECT_EQ(kernel.allocator().RefCount(parent_frame), 2u);

  // Child reads the parent's data.
  kernel.SwitchTo(child);
  kernel.UserTouch(ea, AccessKind::kLoad);
  EXPECT_EQ(sys.machine().memory().Read32(PhysAddr::FromFrame(child_pte->frame)),
            0xFEEDFACEu);

  // Child writes: gets its own copy carrying the old contents.
  kernel.UserTouch(ea + 8, AccessKind::kStore);
  const auto child_after = kernel.task(child).mm->page_table->LookupQuiet(ea);
  ASSERT_TRUE(child_after.has_value());
  EXPECT_NE(child_after->frame, parent_frame);
  EXPECT_TRUE(child_after->writable);
  EXPECT_EQ(sys.machine().memory().Read32(PhysAddr::FromFrame(child_after->frame)),
            0xFEEDFACEu);
  EXPECT_EQ(kernel.allocator().RefCount(parent_frame), 1u);

  // Parent's write now finds itself the sole owner: no copy, just re-enable write.
  kernel.SwitchTo(parent);
  kernel.UserTouch(ea + 16, AccessKind::kStore);
  const auto parent_after = kernel.task(parent).mm->page_table->LookupQuiet(ea);
  EXPECT_EQ(parent_after->frame, parent_frame);
  EXPECT_TRUE(parent_after->writable);
  EXPECT_FALSE(parent_after->cow);

  kernel.Exit(child);
  kernel.Exit(parent);
}

TEST(KernelTest, ExitReleasesAllTaskMemory) {
  System sys = MakeSystem(OptimizationConfig::Baseline());
  Kernel& kernel = sys.kernel();
  const uint32_t free_before = kernel.allocator().FreeCount();
  const TaskId t = SpawnStd(kernel, "t");
  kernel.UserTouchRange(EffAddr(kUserDataBase), 20 * kPageSize, kPageSize,
                        AccessKind::kStore);
  EXPECT_LT(kernel.allocator().FreeCount(), free_before);
  kernel.Exit(t);
  EXPECT_EQ(kernel.allocator().FreeCount(), free_before);
  EXPECT_FALSE(kernel.TaskExists(t));
}

TEST(KernelTest, PipeDataIntegrity) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  const TaskId a = SpawnStd(kernel, "a");
  const TaskId b = SpawnStd(kernel, "b");
  const uint32_t pipe = kernel.CreatePipe();

  // Writer fills its buffer with a known pattern.
  kernel.SwitchTo(a);
  const EffAddr src(kUserDataBase);
  kernel.UserTouchRange(src, 1024, 32, AccessKind::kStore);
  const uint32_t src_frame = kernel.task(a).mm->page_table->LookupQuiet(src)->frame;
  for (uint32_t i = 0; i < 1024; i += 4) {
    sys.machine().memory().Write32(PhysAddr::FromFrame(src_frame, i), 0xA0000000 + i);
  }
  EXPECT_EQ(kernel.PipeWrite(pipe, src, 1024), 1024u);

  kernel.SwitchTo(b);
  const EffAddr dst(kUserDataBase + 0x10000);
  EXPECT_EQ(kernel.PipeRead(pipe, dst, 1024), 1024u);
  const uint32_t dst_frame = kernel.task(b).mm->page_table->LookupQuiet(dst)->frame;
  for (uint32_t i = 0; i < 1024; i += 4) {
    ASSERT_EQ(sys.machine().memory().Read32(PhysAddr::FromFrame(dst_frame, i)),
              0xA0000000 + i);
  }
  kernel.Exit(a);
  kernel.Exit(b);
}

TEST(KernelTest, PipeRespectsCapacityAndWraps) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel, "t");
  const uint32_t pipe = kernel.CreatePipe();
  const EffAddr buf(kUserDataBase);
  EXPECT_EQ(kernel.PipeWrite(pipe, buf, 3000), 3000u);
  EXPECT_EQ(kernel.PipeWrite(pipe, buf, 3000), 1096u);  // capacity 4096
  EXPECT_EQ(kernel.PipeWrite(pipe, buf, 100), 0u);      // full
  EXPECT_EQ(kernel.PipeRead(pipe, buf, 2000), 2000u);
  EXPECT_EQ(kernel.PipeWrite(pipe, buf, 3000), 2000u);  // wrapped write
  EXPECT_EQ(kernel.PipeRead(pipe, buf, 5000), 4096u);   // drain
  EXPECT_EQ(kernel.PipeRead(pipe, buf, 10), 0u);        // empty
}

TEST(KernelTest, FileReadDeliversSynthesizedContents) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  const TaskId t = SpawnStd(kernel, "t");
  const FileId file = kernel.page_cache().CreateFile(4);
  const EffAddr dst(kUserDataBase);
  kernel.FileRead(file, 0, 2 * kPageSize, dst);

  // The page cache synthesizes word = (file * phi) ^ (page << 16) ^ offset.
  const uint32_t frame0 = kernel.task(t).mm->page_table->LookupQuiet(dst)->frame;
  const uint32_t expected0 = (file.value * 0x9E3779B9u) ^ 0 ^ 0;
  EXPECT_EQ(sys.machine().memory().Read32(PhysAddr::FromFrame(frame0)), expected0);
  const uint32_t frame1 =
      kernel.task(t).mm->page_table->LookupQuiet(dst + kPageSize)->frame;
  const uint32_t expected1 = (file.value * 0x9E3779B9u) ^ (1u << 16) ^ 0;
  EXPECT_EQ(sys.machine().memory().Read32(PhysAddr::FromFrame(frame1)), expected1);
}

TEST(KernelTest, FileRereadHitsPageCache) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel, "t");
  const FileId file = kernel.page_cache().CreateFile(8);
  const EffAddr dst(kUserDataBase);
  kernel.FileRead(file, 0, 8 * kPageSize, dst);
  const uint64_t misses_after_first = kernel.page_cache().cache_misses();
  kernel.FileRead(file, 0, 8 * kPageSize, dst);
  EXPECT_EQ(kernel.page_cache().cache_misses(), misses_after_first);
  EXPECT_GT(kernel.page_cache().cache_hits(), 0u);
}

TEST(KernelTest, MmapAnonymousThenTouch) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel, "t");
  const uint32_t start = kernel.Mmap(16);
  EXPECT_GE(start, kUserMmapBase >> kPageShift);
  kernel.UserTouch(EffAddr::FromPage(start + 7), AccessKind::kStore);
  kernel.Munmap(start, 16);
  EXPECT_THROW(kernel.UserTouch(EffAddr::FromPage(start + 7), AccessKind::kLoad),
               CheckFailure);
}

TEST(KernelTest, MmapFileSharesPageCacheFrames) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  const TaskId t = SpawnStd(kernel, "t");
  const FileId file = kernel.page_cache().CreateFile(8);
  const uint32_t start =
      kernel.Mmap(8, MmapOptions{.file = file, .writable = false});
  kernel.UserTouch(EffAddr::FromPage(start + 2), AccessKind::kLoad);
  const auto pte = kernel.task(t).mm->page_table->LookupQuiet(EffAddr::FromPage(start + 2));
  ASSERT_TRUE(pte.has_value());
  EXPECT_TRUE(kernel.page_cache().IsCached(file, 2));
  EXPECT_FALSE(pte->writable);
  EXPECT_EQ(kernel.allocator().RefCount(pte->frame), 2u);  // page cache + mapping
  kernel.Munmap(start, 8);
  EXPECT_TRUE(kernel.page_cache().IsCached(file, 2));  // cache copy survives
}

TEST(KernelTest, MmapFixedReplacesExistingMapping) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel, "t");
  const uint32_t fixed = (kUserMmapBase >> kPageShift) + 0x200;
  kernel.Mmap(8, MmapOptions{.fixed_page = fixed});
  kernel.UserTouch(EffAddr::FromPage(fixed), AccessKind::kStore);
  const HwCounters before = sys.counters();
  kernel.Mmap(8, MmapOptions{.fixed_page = fixed});
  // The replacement flushed the old context one way or another.
  const HwCounters delta = sys.counters().Diff(before);
  EXPECT_GT(delta.tlb_page_flushes + delta.tlb_context_flushes, 0u);
  // And the fresh mapping demand-faults from scratch.
  const HwCounters before2 = sys.counters();
  kernel.UserTouch(EffAddr::FromPage(fixed), AccessKind::kLoad);
  EXPECT_EQ(sys.counters().Diff(before2).page_faults, 1u);
}

TEST(KernelTest, NullSyscallCountsAndCharges) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel, "t");
  const HwCounters before = sys.counters();
  kernel.NullSyscall();
  const HwCounters delta = sys.counters().Diff(before);
  EXPECT_EQ(delta.syscalls, 1u);
  EXPECT_GT(delta.cycles, 0u);
}

TEST(KernelTest, ContextSwitchReloadsSegments) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  const TaskId a = SpawnStd(kernel, "a");
  const TaskId b = SpawnStd(kernel, "b");
  kernel.SwitchTo(a);
  const Vsid vsid_a = sys.mmu().segments().Get(0);
  kernel.SwitchTo(b);
  const Vsid vsid_b = sys.mmu().segments().Get(0);
  EXPECT_NE(vsid_a, vsid_b);
  EXPECT_EQ(vsid_a, kernel.vsids().UserVsid(kernel.task(a).mm->context, 0));
  EXPECT_EQ(vsid_b, kernel.vsids().UserVsid(kernel.task(b).mm->context, 0));
  // Kernel segments are untouched by the switch.
  EXPECT_EQ(sys.mmu().segments().Get(12), VsidSpace::KernelVsid(12));
}

TEST(KernelTest, TasksAreIsolated) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  const TaskId a = SpawnStd(kernel, "a");
  const TaskId b = SpawnStd(kernel, "b");
  const EffAddr ea(kUserDataBase);
  kernel.SwitchTo(a);
  kernel.UserTouch(ea, AccessKind::kStore);
  kernel.SwitchTo(b);
  kernel.UserTouch(ea, AccessKind::kStore);
  const uint32_t frame_a = kernel.task(a).mm->page_table->LookupQuiet(ea)->frame;
  const uint32_t frame_b = kernel.task(b).mm->page_table->LookupQuiet(ea)->frame;
  EXPECT_NE(frame_a, frame_b);
}

TEST(KernelTest, BatMappingKeepsKernelOutOfTlb) {
  OptimizationConfig with_bat = OptimizationConfig::Baseline();
  with_bat.kernel_bat_mapping = true;
  System sys_bat(MachineConfig::Ppc604(185), with_bat);
  System sys_nobat(MachineConfig::Ppc604(185), OptimizationConfig::Baseline());

  for (System* sys : {&sys_bat, &sys_nobat}) {
    Kernel& kernel = sys->kernel();
    const TaskId t = SpawnStd(kernel, "t");
    for (int i = 0; i < 50; ++i) {
      kernel.NullSyscall();
      kernel.UserTouch(EffAddr(kUserDataBase + (i % 8) * 64), AccessKind::kLoad);
    }
    (void)t;
  }
  EXPECT_EQ(sys_bat.counters().kernel_tlb_highwater, 0u);
  EXPECT_GT(sys_nobat.counters().kernel_tlb_highwater, 5u);
  EXPECT_GT(sys_bat.counters().bat_translations, 0u);
  EXPECT_EQ(sys_nobat.counters().bat_translations, 0u);
}

TEST(KernelTest, SwitchToZombieOrUnknownThrows) {
  System sys = MakeSystem();
  Kernel& kernel = sys.kernel();
  const TaskId t = SpawnStd(kernel, "t");
  kernel.Exit(t);
  EXPECT_THROW(kernel.SwitchTo(t), CheckFailure);
  EXPECT_THROW(kernel.task(TaskId{9999}), CheckFailure);
}

}  // namespace
}  // namespace ppcmm
