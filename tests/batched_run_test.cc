// The batched-run contract: Kernel::UserTouchRun's per-page spans must be bit-identical to
// issuing the same accesses one UserTouch at a time — across every fuzz preset, every
// reload strategy, and with translation spans on and off. The driven workload crosses
// every boundary a translation span must not batch across: demand faults mid-run, COW
// breaks mid-run, eager (tlbie) and lazy (VSID-bump) munmap flushes between runs, context
// switches, sub-page strides, and deferred first-store C-bit traps.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/verify/fuzz/differential.h"

namespace ppcmm {
namespace {

void ExpectCountersIdentical(const HwCounters& single, const HwCounters& batched) {
  single.ForEachField([&](const char* name, uint64_t value_single, bool) {
    bool found = false;
    batched.ForEachField([&](const char* batched_name, uint64_t value_batched, bool) {
      if (std::string(name) == batched_name) {
        EXPECT_EQ(value_single, value_batched) << name;
        found = true;
      }
    });
    EXPECT_TRUE(found) << name;
  });
  EXPECT_EQ(single.cycles, batched.cycles);
}

// Every touch in the workload goes through here: as one page-grained run, or unrolled
// into the per-access calls the run claims to be equivalent to.
void Touch(Kernel& kernel, bool batched, EffAddr start, uint32_t stride, uint32_t count,
           AccessKind kind) {
  if (batched) {
    kernel.UserTouchRun(start, stride, count, kind);
  } else {
    for (uint32_t i = 0; i < count; ++i) {
      kernel.UserTouch(start + i * stride, kind);
    }
  }
}

// Returns the span accesses of the user-side touches: those formed before the trailing
// idle slice, whose fetch fast-forward forms spans of its own whenever spans are on, less
// those of the context switches, whose register save and restore do the same.
uint64_t DriveWorkload(System& sys, bool batched) {
  Kernel& kernel = sys.kernel();
  auto touch = [&](EffAddr start, uint32_t stride, uint32_t count, AccessKind kind) {
    Touch(kernel, batched, start, stride, count, kind);
  };
  uint64_t switch_spans = 0;
  auto switch_to = [&](TaskId id) {
    const uint64_t before = sys.mmu().span_accesses();
    kernel.SwitchTo(id);
    switch_spans += sys.mmu().span_accesses() - before;
  };
  const TaskId a = kernel.CreateTask("a");
  kernel.Exec(a, ExecImage{.text_pages = 4, .data_pages = 64, .stack_pages = 4});
  switch_to(a);
  // Demand-fault 32 pages inside one sub-page-stride run.
  touch(EffAddr(kUserDataBase), 1024, 32 * 4, AccessKind::kStore);
  // Re-stream part of the resident set at cache-line stride (pure span replay).
  touch(EffAddr(kUserDataBase), 64, 8 * (kPageSize / 64), AccessKind::kLoad);
  const TaskId child = kernel.Fork(a);
  switch_to(child);
  // The loads put the read-only shared translations in the TLB, then the store run
  // COW-breaks every page mid-run.
  touch(EffAddr(kUserDataBase), kPageSize, 16, AccessKind::kLoad);
  touch(EffAddr(kUserDataBase), kPageSize, 16, AccessKind::kStore);
  const uint32_t map = kernel.Mmap(30);
  touch(EffAddr::FromPage(map), 2048, 60, AccessKind::kStore);
  kernel.Munmap(map, 30);  // above the cutoff: lazy VSID-bump context flush
  const uint32_t map2 = kernel.Mmap(4);
  touch(EffAddr::FromPage(map2), kPageSize, 4, AccessKind::kStore);
  kernel.Munmap(map2, 4);  // below the cutoff: eager per-page tlbie flush
  // Post-flush re-touch: spans must not outlive the flushes above.
  touch(EffAddr(kUserDataBase), kPageSize, 32, AccessKind::kLoad);
  switch_to(a);
  touch(EffAddr(kUserDataBase), 512, 16 * 8, AccessKind::kLoad);
  kernel.Exit(child);
  const uint64_t touch_spans = sys.mmu().span_accesses() - switch_spans;
  kernel.RunIdle(Cycles(20000));
  return touch_spans;
}

// The reload-strategy axis, pinned the way RunDifferential pins it.
struct StrategyCase {
  const char* name;
  MachineConfig machine;
  bool direct_reload;
};

std::vector<StrategyCase> Strategies() {
  return {
      {"hw_walk", MachineConfig::Ppc604(185), false},
      {"sw_htab", MachineConfig::Ppc603(80), false},
      {"sw_direct", MachineConfig::Ppc603(80), true},
  };
}

TEST(BatchedRunTest, BitIdenticalAcrossPresetsStrategiesAndFastPath) {
  for (const FuzzPreset& preset : FuzzPresets()) {
    for (const StrategyCase& s : Strategies()) {
      OptimizationConfig config = preset.config;
      config.no_htab_direct_reload = s.direct_reload;
      for (const bool spans : {false, true}) {
        SCOPED_TRACE(preset.name + "/" + s.name + (spans ? "/spans" : "/per_access"));
        const ScopedSpanDefault spans_default(spans);
        System single(s.machine, config);
        const uint64_t single_spans = DriveWorkload(single, /*batched=*/false);

        System batched(s.machine, config);
        const uint64_t batched_spans = DriveWorkload(batched, /*batched=*/true);

        ExpectCountersIdentical(single.counters(), batched.counters());
        // Per-access touches never form spans; batched runs only form them with spans on.
        EXPECT_EQ(single_spans, 0u);
        if (spans) {
          EXPECT_GT(batched_spans, 0u) << "spans never engaged";
        } else {
          EXPECT_EQ(batched_spans, 0u);
          EXPECT_EQ(batched.mmu().span_accesses(), 0u);
        }
      }
    }
  }
}

TEST(BatchedRunTest, AttributionSumsBitExactlyUnderSpans) {
  // CycleLedger conservation: with attribution on, batched and per-access runs charge the
  // identical total, and that total equals the machine's clock advance over the window.
  auto run = [](bool batched) {
    System sys(MachineConfig::Ppc604(133), OptimizationConfig::AllOptimizations());
    sys.machine().attr().SetEnabled(true);
    const uint64_t start = sys.machine().Now().value;
    DriveWorkload(sys, batched);
    const uint64_t elapsed = sys.machine().Now().value - start;
    uint64_t cell_sum = 0;
    for (const CycleLedger::Cell& cell : sys.machine().attr().Cells()) {
      cell_sum += cell.cycles;
    }
    return std::tuple<uint64_t, uint64_t, uint64_t>(
        sys.machine().attr().TotalAttributed(), cell_sum, elapsed);
  };
  const auto [total_single, cells_single, elapsed_single] = run(false);
  const auto [total_batched, cells_batched, elapsed_batched] = run(true);
  EXPECT_EQ(total_single, total_batched);
  EXPECT_EQ(cells_batched, total_batched);
  EXPECT_EQ(cells_single, total_single);
  EXPECT_EQ(elapsed_single, elapsed_batched);
  EXPECT_EQ(total_batched, elapsed_batched);
}

TEST(BatchedRunTest, ReplaySpanRefreshesTheTlbLru) {
  // A replayed span counts as n hits on its TLB entry, so it must leave that entry the most
  // recently used of its set: the next fill in the set evicts the other way.
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Kernel& kernel = sys.kernel();
  const TaskId t = kernel.CreateTask("t");
  kernel.Exec(t, ExecImage{.text_pages = 2, .data_pages = 160, .stack_pages = 2});
  kernel.SwitchTo(t);
  // Three pages that share one 2-way D-TLB set (the kernel is BAT-mapped, so only these
  // user pages compete for it).
  const uint32_t sets = sys.machine().config().dtlb_entries / kTlbAssociativity;
  const EffAddr a(kUserDataBase);
  const EffAddr b = a + sets * kPageSize;
  const EffAddr c = b + sets * kPageSize;
  for (const EffAddr ea : {a, b, c, b, a, b}) {
    kernel.UserTouch(ea, AccessKind::kLoad);
  }
  // The set holds {a, b} with b the more recent; a is still resident.
  ASSERT_TRUE(sys.mmu().ReplaySpan(a, AccessKind::kLoad, 4).has_value());
  kernel.UserTouch(c, AccessKind::kLoad);  // evicts b, the least recently used
  const uint64_t misses = sys.counters().dtlb_misses;
  kernel.UserTouch(a, AccessKind::kLoad);
  EXPECT_EQ(sys.counters().dtlb_misses, misses) << "the span did not refresh a's LRU";
  kernel.UserTouch(b, AccessKind::kLoad);
  EXPECT_EQ(sys.counters().dtlb_misses, misses + 1);
}

TEST(BatchedRunTest, SpansCarryMostOfASteadyStateStream) {
  // The perf claim behind the API: once a working set is resident, nearly every access in
  // a page-grained run rides a span instead of a per-access walk.
  System sys(MachineConfig::Ppc603(133), OptimizationConfig::OnlyDirectReload());
  Kernel& kernel = sys.kernel();
  const TaskId t = kernel.CreateTask("t");
  kernel.Exec(t, ExecImage{.text_pages = 2, .data_pages = 40, .stack_pages = 2});
  kernel.SwitchTo(t);
  kernel.UserTouchRun(EffAddr(kUserDataBase), 64, 32 * (kPageSize / 64),
                      AccessKind::kStore);  // fault in
  const uint64_t warm_spans = sys.mmu().span_accesses();
  for (int pass = 0; pass < 4; ++pass) {
    kernel.UserTouchRun(EffAddr(kUserDataBase), 64, 32 * (kPageSize / 64),
                        AccessKind::kLoad);
  }
  const uint64_t stream_accesses = 4ull * 32 * (kPageSize / 64);
  const uint64_t stream_spans = sys.mmu().span_accesses() - warm_spans;
  EXPECT_GT(stream_spans, stream_accesses * 95 / 100)
      << stream_spans << " of " << stream_accesses << " accesses rode spans";
  // And each span covers many accesses: the whole point of translating once per page.
  EXPECT_GT(sys.mmu().span_accesses() / sys.mmu().span_runs(), 16u);
}

}  // namespace
}  // namespace ppcmm
