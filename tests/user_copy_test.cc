// Page-batched user copies: Kernel::CopyUserKernel replays each user page's remaining
// lines through one Mmu::ReplaySpan after the first line's UserTouch, and that must be
// bit-identical to translating every line. FileRead, FileWrite, PipeRead and PipeWrite run
// with translation spans off (the per-line reference) and on, over unaligned buffers and
// lengths, page-crossing copies, pipe ring wraps, demand faults and a COW-shared
// destination after Fork; counters, cache stats, cycles, ledger cells and the copied bytes
// must all match.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/kernel/layout.h"

namespace ppcmm {
namespace {

struct Outcome {
  HwCounters counters;
  CacheStats icache;
  CacheStats dcache;
  std::vector<CycleLedger::Cell> cells;
  std::vector<uint8_t> bytes;  // every destination buffer, concatenated
  uint64_t span_accesses = 0;
};

// Reads `len` user bytes of the current task through its page table (uncharged).
void AppendUserBytes(Kernel& kernel, TaskId task, EffAddr ea, uint32_t len,
                     std::vector<uint8_t>* out) {
  PhysicalMemory& memory = kernel.machine().memory();
  for (uint32_t i = 0; i < len; ++i) {
    const std::optional<LinuxPte> pte = kernel.task(task).mm->page_table->LookupQuiet(ea + i);
    ASSERT_TRUE(pte.has_value() && pte->present);
    out->push_back(memory.Read8(PhysAddr::FromFrame(pte->frame, (ea + i).PageOffset())));
  }
}

Outcome DriveCopies(System& sys, bool ledger) {
  sys.machine().attr().SetEnabled(ledger);
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  kernel.Exec(a, ExecImage{.text_pages = 4, .data_pages = 64, .stack_pages = 2});
  kernel.SwitchTo(a);

  // Source buffer: faulted in and filled with a byte pattern behind the simulation's back.
  const EffAddr src(kUserDataBase);
  kernel.UserTouchRun(src, kPageSize, 6, AccessKind::kStore);
  for (uint32_t i = 0; i < 6 * kPageSize; ++i) {
    const LinuxPte pte = *kernel.task(a).mm->page_table->LookupQuiet(src + i);
    sys.machine().memory().Write8(PhysAddr::FromFrame(pte.frame, (src + i).PageOffset()),
                                  static_cast<uint8_t>(i * 7 + 3));
  }

  const FileId file = kernel.page_cache().CreateFile(8);
  // Unaligned user buffer, file offset and length; crosses four user pages.
  kernel.FileWrite(file, 100, 3 * kPageSize + 77, src + 13);
  // Into a never-touched destination: every page demand-faults on its first line.
  const EffAddr dst(kUserDataBase + 16 * kPageSize);
  kernel.FileRead(file, 4000, 5000, dst + 29);
  // Sub-line copies, one inside a line and one straddling a line boundary.
  kernel.FileWrite(file, 9, 5, src + 40);
  kernel.FileRead(file, 0, 20, dst + 6 * kPageSize + 25);

  // Pipes: the writes and reads wrap the one-page ring at unaligned positions.
  const uint32_t pipe = kernel.CreatePipe();
  const EffAddr pdst(kUserDataBase + 24 * kPageSize);
  EXPECT_EQ(kernel.PipeWrite(pipe, src + 5, 3000), 3000u);
  EXPECT_EQ(kernel.PipeRead(pipe, pdst + 11, 2000), 2000u);
  EXPECT_EQ(kernel.PipeWrite(pipe, src + 4091, 2500), 2500u);
  EXPECT_EQ(kernel.PipeRead(pipe, pdst + 2011, 3500), 3500u);

  // A COW-shared destination: the parent touched it before Fork, so the child's copy
  // breaks COW on the first line of each page.
  const TaskId child = kernel.Fork(a);
  kernel.SwitchTo(child);
  kernel.FileRead(file, 50, 2 * kPageSize + 300, src + 700);
  EXPECT_EQ(kernel.PipeWrite(pipe, src + 3 * kPageSize + 1, 1234), 1234u);
  EXPECT_EQ(kernel.PipeRead(pipe, src + 5 * kPageSize + 33, 1234), 1234u);

  Outcome out;
  out.counters = sys.counters();
  out.icache = sys.machine().icache().stats();
  out.dcache = sys.machine().dcache().stats();
  out.cells = sys.machine().attr().Cells();
  AppendUserBytes(kernel, child, src, 6 * kPageSize, &out.bytes);
  kernel.SwitchTo(a);
  AppendUserBytes(kernel, a, dst, 2 * kPageSize, &out.bytes);
  AppendUserBytes(kernel, a, dst + 6 * kPageSize, kPageSize, &out.bytes);
  AppendUserBytes(kernel, a, pdst, 2 * kPageSize, &out.bytes);
  out.span_accesses = sys.mmu().span_accesses();
  return out;
}

void ExpectCacheStatsEqual(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.dirty_writebacks, b.dirty_writebacks);
  EXPECT_EQ(a.uncached_accesses, b.uncached_accesses);
}

struct CopyCase {
  const char* name;
  MachineConfig machine;
  OptimizationConfig opts;
};

std::vector<CopyCase> Cases() {
  OptimizationConfig deferred_c = OptimizationConfig::AllOptimizations();
  deferred_c.eager_dirty_marking = false;
  deferred_c.lazy_context_flush = false;
  return {
      {"604_all_opts", MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations()},
      {"604_baseline", MachineConfig::Ppc604(133), OptimizationConfig::Baseline()},
      {"604_deferred_c_bit", MachineConfig::Ppc604(185), deferred_c},
      {"603_sw_htab", MachineConfig::Ppc603(133), OptimizationConfig::Baseline()},
      {"603_direct", MachineConfig::Ppc603(133), OptimizationConfig::OnlyDirectReload()},
      {"604_l2_uncached_pt", MachineConfig::Ppc604WithL2(185),
       OptimizationConfig::AllPlusUncachedPageTables()},
  };
}

TEST(UserCopyTest, PageBatchedCopiesAreBitIdentical) {
  for (const CopyCase& c : Cases()) {
    for (const bool ledger : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (ledger ? "/ledger" : ""));
      const auto drive = [&](bool spans) {
        const ScopedSpanDefault spans_default(spans);
        System sys(c.machine, c.opts);
        return DriveCopies(sys, ledger);
      };
      const Outcome off = drive(false);
      const Outcome on = drive(true);

      off.counters.ForEachField([&](const char* name, uint64_t value_off, bool) {
        on.counters.ForEachField([&](const char* on_name, uint64_t value_on, bool) {
          if (std::string(name) == on_name) {
            EXPECT_EQ(value_off, value_on) << name;
          }
        });
      });
      ExpectCacheStatsEqual(off.icache, on.icache);
      ExpectCacheStatsEqual(off.dcache, on.dcache);
      ASSERT_EQ(off.cells.size(), on.cells.size());
      for (size_t i = 0; i < off.cells.size(); ++i) {
        EXPECT_EQ(off.cells[i].path, on.cells[i].path);
        EXPECT_EQ(off.cells[i].task, on.cells[i].task);
        EXPECT_EQ(off.cells[i].cycles, on.cells[i].cycles);
      }
      EXPECT_TRUE(off.bytes == on.bytes) << "copied bytes differ";
      EXPECT_EQ(off.span_accesses, 0u);
      EXPECT_GT(on.span_accesses, 0u) << "copies never formed spans";
    }
  }
}

TEST(UserCopyTest, CopiesMoveTheRightBytes) {
  // The functional half: a pipe round trip between unaligned buffers lands the source
  // pattern at the destination, byte for byte.
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Kernel& kernel = sys.kernel();
  const TaskId t = kernel.CreateTask("t");
  kernel.Exec(t, ExecImage{.text_pages = 4, .data_pages = 32, .stack_pages = 2});
  kernel.SwitchTo(t);
  const EffAddr src(kUserDataBase);
  kernel.UserTouchRun(src, kPageSize, 2, AccessKind::kStore);
  for (uint32_t i = 0; i < 2 * kPageSize; ++i) {
    const LinuxPte pte = *kernel.task(t).mm->page_table->LookupQuiet(src + i);
    sys.machine().memory().Write8(PhysAddr::FromFrame(pte.frame, (src + i).PageOffset()),
                                  static_cast<uint8_t>(i * 13 + 1));
  }
  const uint32_t pipe = kernel.CreatePipe();
  const EffAddr dst(kUserDataBase + 8 * kPageSize + 3);
  ASSERT_EQ(kernel.PipeWrite(pipe, src + 17, 4000), 4000u);
  ASSERT_EQ(kernel.PipeRead(pipe, dst, 4000), 4000u);
  std::vector<uint8_t> got;
  AppendUserBytes(kernel, t, dst, 4000, &got);
  for (uint32_t i = 0; i < 4000; ++i) {
    ASSERT_EQ(got[i], static_cast<uint8_t>((i + 17) * 13 + 1)) << i;
  }
}

}  // namespace
}  // namespace ppcmm
