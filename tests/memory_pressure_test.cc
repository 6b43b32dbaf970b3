// Memory-pressure tests: the page-cache reclaim path (a kswapd in miniature) and the cache
// preload extension (§10.2).

#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/sim/check.h"

namespace ppcmm {
namespace {

TaskId SpawnStd(Kernel& kernel) {
  const TaskId id = kernel.CreateTask("t");
  kernel.Exec(id, ExecImage{.text_pages = 4, .data_pages = 4096, .stack_pages = 2});
  kernel.SwitchTo(id);
  return id;
}

TEST(MemoryPressureTest, PageCacheShrinksInsteadOfOom) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel);

  // Fill most of RAM with page-cache contents: a file nearly as big as the pool.
  const uint32_t pool = kernel.allocator().FreeCount();
  const uint32_t file_pages = pool - 256;  // leave a little slack
  const FileId big = kernel.page_cache().CreateFile(file_pages);
  const EffAddr buf(kUserDataBase);
  for (uint32_t page = 0; page < file_pages; ++page) {
    kernel.FileRead(big, page * kPageSize, 64, buf);
  }
  ASSERT_LT(kernel.allocator().FreeCount(), 256u + 64u);
  const uint32_t cached_before = kernel.page_cache().CachedPageCount();

  // Now demand hundreds of anonymous pages: without reclaim this would be fatal.
  kernel.UserTouchRange(EffAddr(kUserDataBase + 0x100000), 600 * kPageSize, kPageSize,
                        AccessKind::kStore);
  EXPECT_LT(kernel.page_cache().CachedPageCount(), cached_before);
}

TEST(MemoryPressureTest, MappedPagesSurviveReclaim) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Kernel& kernel = sys.kernel();
  SpawnStd(kernel);
  const FileId file = kernel.page_cache().CreateFile(8);
  const uint32_t start = kernel.Mmap(8, MmapOptions{.file = file, .writable = false});
  kernel.UserTouch(EffAddr::FromPage(start + 3), AccessKind::kLoad);  // maps page 3 (ref 2)
  kernel.UserTouch(EffAddr::FromPage(start + 5), AccessKind::kLoad);
  bool miss = false;
  kernel.page_cache().GetPage(file, 0, &miss);  // cached, unmapped (ref 1)

  const uint32_t reclaimed = kernel.page_cache().ReclaimPages(1000);
  EXPECT_GE(reclaimed, 1u);                             // the unmapped page went
  EXPECT_TRUE(kernel.page_cache().IsCached(file, 3));   // mapped pages stayed
  EXPECT_TRUE(kernel.page_cache().IsCached(file, 5));
  EXPECT_FALSE(kernel.page_cache().IsCached(file, 0));
}

TEST(MemoryPressureTest, ReclaimReturnsZeroWhenNothingEvictable) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Kernel& kernel = sys.kernel();
  EXPECT_EQ(kernel.page_cache().ReclaimPages(10), 0u);
}

TEST(CachePreloadTest, PrefetchInstallsLineCheaply) {
  Machine machine(MachineConfig::Ppc604(185));
  const PhysAddr pa(0x4000);
  EXPECT_FALSE(machine.dcache().Contains(pa));
  const Cycles before = machine.Now();
  machine.PrefetchData(pa);
  EXPECT_EQ((machine.Now() - before).value, 2u);  // overlapped fill: issue cost only
  EXPECT_TRUE(machine.dcache().Contains(pa));
  // The following demand access is a hit, and the only access counted.
  machine.TouchData(pa, false);
  EXPECT_EQ(machine.dcache().stats().accesses, 1u);
  EXPECT_EQ(machine.dcache().stats().hits, 1u);
  EXPECT_EQ(machine.dcache().stats().misses, 0u);
  EXPECT_EQ(machine.dcache().stats().prefetches, 1u);
}

TEST(CachePreloadTest, PrefetchDisplacesLikeAFill) {
  Machine machine(MachineConfig::Ppc604(185));
  const CacheGeometry& geometry = machine.config().dcache;
  const uint32_t way_bytes = geometry.NumSets() * geometry.line_bytes;
  // Fill one set with dirty lines, then prefetch one more line into it: the LRU line goes,
  // and is written back, as on a demand fill.
  for (uint32_t w = 0; w < geometry.associativity; ++w) {
    machine.TouchData(PhysAddr(0x4000 + w * way_bytes), /*is_write=*/true);
  }
  const CacheStats before = machine.dcache().stats();
  machine.PrefetchData(PhysAddr(0x4000 + geometry.associativity * way_bytes));
  const CacheStats& after = machine.dcache().stats();
  EXPECT_FALSE(machine.dcache().Contains(PhysAddr(0x4000)));
  EXPECT_EQ(after.evictions, before.evictions + 1);
  EXPECT_EQ(after.dirty_writebacks, before.dirty_writebacks + 1);
  EXPECT_EQ(after.accesses, before.accesses);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(CachePreloadTest, PreloadHintsSpeedColdContextSwitches) {
  OptimizationConfig plain = OptimizationConfig::AllOptimizations();
  OptimizationConfig hinted = OptimizationConfig::AllOptimizations();
  hinted.cache_preload_hints = true;
  double times[2];
  int index = 0;
  for (const OptimizationConfig* config : {&plain, &hinted}) {
    System sys(MachineConfig::Ppc604(185), *config);
    Kernel& kernel = sys.kernel();
    const TaskId a = kernel.CreateTask("a");
    const TaskId b = kernel.CreateTask("b");
    kernel.Exec(a, ExecImage{});
    kernel.Exec(b, ExecImage{});
    kernel.SwitchTo(a);
    // Evict the task structs between switches so every restore is cold — the §10.2 case.
    times[index++] = sys.TimeMicros([&] {
      for (int i = 0; i < 40; ++i) {
        sys.machine().dcache().InvalidateAll();
        kernel.SwitchTo(i % 2 == 0 ? b : a);
      }
    });
  }
  EXPECT_LT(times[1], times[0]);
}

TEST(CachePreloadTest, PrefetchOfResidentLineIsAlmostFree) {
  Machine machine(MachineConfig::Ppc604(185));
  const PhysAddr pa(0x8000);
  machine.TouchData(pa, false);
  const Cycles before = machine.Now();
  machine.PrefetchData(pa);
  EXPECT_EQ((machine.Now() - before).value, 1u);
}

}  // namespace
}  // namespace ppcmm
