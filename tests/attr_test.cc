// The cycle-attribution ledger's two contracts:
//
//  1. Conservation: with attribution on, the per-cause cells sum bit-exactly to the cycles
//     the machine simulated — no cycle is lost, none is double-counted, and there is no
//     "unknown" bucket to hide in (the base cell is "instruction" by construction). Checked
//     across every fuzz preset x reload strategy combination.
//  2. Zero perturbation: attribution (on or off) never changes what the simulation does —
//     hardware counters are identical with the ledger enabled, and a disabled ledger
//     records nothing at all.
//
// Plus unit coverage for the ledger mechanics (Rebind, nesting, per-task cells, the trace
// ring, per-cause latency histograms, instants) and the src/obs/attr exporters built on top.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/obs/attr/attr_export.h"
#include "src/sim/fault_injector.h"
#include "src/verify/fuzz/differential.h"
#include "src/verify/torture.h"

namespace ppcmm {
namespace {

// Crosses every instrumented path: faults, COW breaks, TLB reloads, range and context
// flushes, syscalls, pipes, file I/O, context switches, idle reclaim and zeroing.
void Workload(System& sys) {
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  kernel.Exec(a, ExecImage{.text_pages = 4, .data_pages = 64, .stack_pages = 4});
  kernel.SwitchTo(a);
  for (uint32_t i = 0; i < 32; ++i) {
    kernel.UserTouch(EffAddr(kUserDataBase + i * kPageSize), AccessKind::kStore);
  }
  const TaskId child = kernel.Fork(a);
  kernel.SwitchTo(child);
  for (uint32_t i = 0; i < 8; ++i) {
    kernel.UserTouch(EffAddr(kUserDataBase + i * kPageSize), AccessKind::kStore);  // COW
  }
  const uint32_t map = kernel.Mmap(30);
  for (uint32_t i = 0; i < 30; ++i) {
    kernel.UserTouch(EffAddr::FromPage(map + i), AccessKind::kStore);
  }
  kernel.Munmap(map, 30);  // above the cutoff: lazy context flush
  const uint32_t map2 = kernel.Mmap(4);
  for (uint32_t i = 0; i < 4; ++i) {
    kernel.UserTouch(EffAddr::FromPage(map2 + i), AccessKind::kStore);
  }
  kernel.Munmap(map2, 4);  // below the cutoff: eager per-page flush
  kernel.SwitchTo(a);
  kernel.Exit(child);
  kernel.RunIdle(Cycles(20000));  // reclaim + zeroing passes
}

uint64_t CellSum(const CycleLedger& ledger) {
  uint64_t sum = 0;
  for (const CycleLedger::Cell& cell : ledger.Cells()) {
    sum += cell.cycles;
  }
  return sum;
}

TEST(AttrTest, ConservationAcrossEveryPresetAndStrategy) {
  const ReloadStrategy strategies[] = {ReloadStrategy::kSoftwareDirect,
                                       ReloadStrategy::kSoftwareHtab,
                                       ReloadStrategy::kHardwareHtabWalk};
  for (const FuzzPreset& preset : FuzzPresets()) {
    for (const ReloadStrategy strategy : strategies) {
      // Same machine/config derivation the differential fuzzer uses: the strategy pins
      // the direct-reload bit, hardware walk needs a 604, the software paths a 603.
      OptimizationConfig config = preset.config;
      config.no_htab_direct_reload = strategy == ReloadStrategy::kSoftwareDirect;
      const MachineConfig machine = strategy == ReloadStrategy::kHardwareHtabWalk
                                        ? MachineConfig::Ppc604(185)
                                        : MachineConfig::Ppc603(80);
      System sys(machine, config);
      CycleLedger& ledger = sys.machine().attr();
      ledger.SetEnabled(true);
      const uint64_t before = sys.counters().cycles;
      Workload(sys);
      const uint64_t simulated = sys.counters().cycles - before;
      const std::string where =
          preset.name + " / " + ReloadStrategyName(strategy);
      ASSERT_GT(simulated, 0u) << where;
      // Bit-exact: every simulated cycle is attributed, exactly once.
      EXPECT_EQ(ledger.TotalAttributed(), simulated) << where;
      EXPECT_EQ(CellSum(ledger), simulated) << where;
    }
  }
}

TEST(AttrTest, EnabledAttributionDoesNotPerturbTheSimulation) {
  System off(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Workload(off);

  System on(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  on.machine().attr().SetEnabled(true);
  Workload(on);

  EXPECT_GT(on.machine().attr().events_recorded(), 0u);
  const HwCounters& c_off = off.counters();
  const HwCounters& c_on = on.counters();
  c_off.ForEachField([&](const char* name, uint64_t value_off, bool) {
    c_on.ForEachField([&](const char* on_name, uint64_t value_on, bool) {
      if (std::string(name) == on_name) {
        EXPECT_EQ(value_off, value_on) << name;
      }
    });
  });
  EXPECT_EQ(c_off.cycles, c_on.cycles);
}

TEST(AttrTest, DisabledLedgerRecordsNothing) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  ASSERT_FALSE(sys.machine().attr().enabled());
  Workload(sys);
  EXPECT_EQ(sys.machine().attr().TotalAttributed(), 0u);
  EXPECT_TRUE(sys.machine().attr().Cells().empty());
  EXPECT_TRUE(sys.machine().attr().RecentEvents().empty());
  EXPECT_EQ(sys.machine().attr().events_recorded(), 0u);
  EXPECT_GT(sys.counters().cycles, 0u);
  // No histogram sample, and the ring was never even allocated.
  for (uint8_t i = 0; i < static_cast<uint8_t>(AttrCause::kNumCauses); ++i) {
    EXPECT_EQ(sys.machine().attr().Latency(static_cast<AttrCause>(i)).TotalCount(), 0u);
  }
  EXPECT_FALSE(sys.machine().attr().ring_allocated());
}

TEST(AttrTest, RingIsEmptyAndUnallocatedUntilEnabled) {
  Machine machine(MachineConfig::Ppc604(185));
  {
    CycleScope scope(machine, AttrCause::kSyscall);
    machine.AddCycles(Cycles(5));
  }
  machine.attr().RecordInstant(AttrEventKind::kOomRollback, machine.Now().value);
  EXPECT_FALSE(machine.attr().ring_allocated());
  EXPECT_EQ(machine.attr().events_recorded(), 0u);
  EXPECT_EQ(machine.attr().Latency(AttrCause::kSyscall).TotalCount(), 0u);

  machine.attr().SetEnabled(true);
  EXPECT_TRUE(machine.attr().ring_allocated());
  EXPECT_TRUE(machine.attr().RecentEvents().empty());
}

TEST(AttrTest, RingRecordsInCloseOrder) {
  Machine machine(MachineConfig::Ppc604(185));
  machine.attr().SetEnabled(true);
  {
    CycleScope outer(machine, AttrCause::kFork);
    machine.AddCycles(Cycles(10));
    {
      CycleScope inner(machine, AttrCause::kCowCopy);
      machine.AddCycles(Cycles(20));
    }
    machine.attr().RecordInstant(AttrEventKind::kOomRollback, machine.Now().value);
    machine.AddCycles(Cycles(30));
  }
  const std::vector<AttrEvent> events = machine.attr().RecentEvents();
  ASSERT_EQ(events.size(), 3u);
  // The child closes first, then the instant, then the enclosing scope.
  EXPECT_EQ(events[0].kind, AttrEventKind::kScope);
  EXPECT_EQ(events[0].cause, AttrCause::kCowCopy);
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[0].cycles, 20u);
  EXPECT_EQ(events[0].end_cycle, 30u);
  EXPECT_EQ(events[1].kind, AttrEventKind::kOomRollback);
  EXPECT_EQ(events[1].cycles, 0u);
  EXPECT_EQ(events[1].end_cycle, 30u);
  EXPECT_EQ(events[2].cause, AttrCause::kFork);
  EXPECT_EQ(events[2].depth, 1u);
  EXPECT_EQ(events[2].cycles, 60u);
  EXPECT_EQ(events[2].end_cycle, 60u);
  // Each closed scope is one sample of its cause's histogram; the instant is none.
  EXPECT_EQ(machine.attr().Latency(AttrCause::kFork).TotalCount(), 1u);
  EXPECT_EQ(machine.attr().Latency(AttrCause::kFork).Max(), 60u);
  EXPECT_EQ(machine.attr().Latency(AttrCause::kCowCopy).Max(), 20u);
}

TEST(AttrTest, RingKeepsTheMostRecent) {
  Machine machine(MachineConfig::Ppc604(185));
  machine.attr().SetEnabled(true);
  // Two full laps plus six: the window starts mid-ring, so reading it crosses the wrap.
  constexpr uint32_t kRecords = 2 * CycleLedger::kRingCapacity + 6;
  for (uint32_t i = 0; i < kRecords; ++i) {
    if (i % 2 == 0) {
      CycleScope scope(machine, AttrCause::kSyscall);
      machine.AddCycles(Cycles(1));
    } else {
      machine.AddCycles(Cycles(1));
      machine.attr().RecordInstant(AttrEventKind::kOomRollback, machine.Now().value);
    }
  }
  EXPECT_EQ(machine.attr().events_recorded(), kRecords);
  const std::vector<AttrEvent> events = machine.attr().RecentEvents();
  ASSERT_EQ(events.size(), CycleLedger::kRingCapacity);
  // Oldest-first: record i ends at cycle i + 1, so the window is kRecords - 4095 .. kRecords
  // with no gap or reordering at the wrap point.
  EXPECT_EQ(events.front().end_cycle, kRecords - CycleLedger::kRingCapacity + 1);
  EXPECT_EQ(events.back().end_cycle, kRecords);
  for (size_t i = 0; i < events.size(); ++i) {
    const uint64_t record = events[i].end_cycle - 1;
    EXPECT_EQ(events[i].end_cycle, events.front().end_cycle + i);
    EXPECT_EQ(events[i].kind,
              record % 2 == 0 ? AttrEventKind::kScope : AttrEventKind::kOomRollback);
  }
}

TEST(AttrTest, RingEventsStampTheCurrentTaskAndCpu) {
  MachineConfig config = MachineConfig::Ppc604(185);
  config.ncpus = 2;
  Machine machine(config);
  machine.attr().SetEnabled(true);
  {
    CycleScope scope(machine, AttrCause::kPipe);
    machine.AddCycles(Cycles(1));
  }
  machine.attr().SetCurrentTask(5);
  machine.SetCurrentCpu(1);
  {
    CycleScope scope(machine, AttrCause::kPipe);
    machine.AddCycles(Cycles(1));
  }
  const std::vector<AttrEvent> events = machine.attr().RecentEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].task, 0u);
  EXPECT_EQ(events[0].cpu, 0u);
  EXPECT_EQ(events[1].task, 5u);
  EXPECT_EQ(events[1].cpu, 1u);
}

TEST(AttrTest, EveryCauseAndEventKindHasAName) {
  std::set<std::string> names;
  for (uint8_t i = 0; i < static_cast<uint8_t>(AttrCause::kNumCauses); ++i) {
    const AttrEvent scope{.cause = static_cast<AttrCause>(i)};
    EXPECT_STRNE(AttrEventName(scope), "invalid");
    names.insert(AttrEventName(scope));
  }
  for (const AttrEventKind kind : {AttrEventKind::kFaultInjected, AttrEventKind::kOomRollback}) {
    const AttrEvent instant{.kind = kind};
    EXPECT_STRNE(AttrEventName(instant), "invalid");
    names.insert(AttrEventName(instant));
  }
  // Distinct names: an instant never reads as a cause, and lat.<cause> names are unique.
  EXPECT_EQ(names.size(), static_cast<size_t>(AttrCause::kNumCauses) + 2);
}

// The integration counterpart of the ring tests: a kernel session lands each kind of
// activity in its cause's histogram.
TEST(AttrTest, KernelActivityFillsTheExpectedHistograms) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::OnlyLazyFlush(20));
  const CycleLedger& ledger = sys.machine().attr();
  sys.machine().attr().SetEnabled(true);
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  const TaskId b = kernel.CreateTask("b");
  kernel.Exec(a, ExecImage{});
  kernel.Exec(b, ExecImage{});
  kernel.SwitchTo(a);
  kernel.NullSyscall();
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);  // fault + reloads
  kernel.SwitchTo(b);
  const uint32_t start = kernel.Mmap(40);
  for (uint32_t i = 0; i < 40; ++i) {
    kernel.UserTouch(EffAddr::FromPage(start + i), AccessKind::kStore);
  }
  kernel.Munmap(start, 40);  // above the cutoff: a context flush
  kernel.RunIdle(Cycles(5000));

  EXPECT_GT(ledger.Latency(AttrCause::kSyscall).TotalCount(), 0u);
  EXPECT_GT(ledger.Latency(AttrCause::kFaultAnon).TotalCount(), 40u);
  EXPECT_GT(ledger.Latency(AttrCause::kDtlbReloadHw).TotalCount(), 40u);
  EXPECT_GE(ledger.Latency(AttrCause::kContextSwitch).TotalCount(), 2u);
  EXPECT_GE(ledger.Latency(AttrCause::kContextFlushLazy).TotalCount(), 1u);
  EXPECT_GE(ledger.Latency(AttrCause::kIdleLoop).TotalCount(), 1u);

  // Until the ring wraps, it holds exactly the samples the histograms counted, and its
  // events close in cycle order.
  const std::vector<AttrEvent> events = ledger.RecentEvents();
  ASSERT_LT(ledger.events_recorded(), CycleLedger::kRingCapacity);
  ASSERT_EQ(events.size(), ledger.events_recorded());
  std::map<AttrCause, uint64_t> ring_counts;
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].kind, AttrEventKind::kScope);
    ++ring_counts[events[i].cause];
    if (i > 0) {
      EXPECT_LE(events[i - 1].end_cycle, events[i].end_cycle);
    }
  }
  for (uint8_t i = 0; i < static_cast<uint8_t>(AttrCause::kNumCauses); ++i) {
    const AttrCause cause = static_cast<AttrCause>(i);
    EXPECT_EQ(ledger.Latency(cause).TotalCount(), ring_counts[cause]) << AttrCauseName(cause);
  }
}

TEST(AttrTest, DeferredDirtySchemeRecordsUpdates) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::Baseline());
  sys.machine().attr().SetEnabled(true);
  Kernel& kernel = sys.kernel();
  const TaskId t = kernel.CreateTask("t");
  kernel.Exec(t, ExecImage{});
  kernel.SwitchTo(t);
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kLoad);
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);
  EXPECT_GE(sys.machine().attr().Latency(AttrCause::kDirtyBitUpdate).TotalCount(), 1u);
}

size_t CountInstants(const CycleLedger& ledger, AttrEventKind kind) {
  size_t n = 0;
  for (const AttrEvent& e : ledger.RecentEvents()) {
    n += e.kind == kind ? 1 : 0;
  }
  return n;
}

TEST(AttrTest, InjectedFaultLeavesOneInstant) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  sys.machine().attr().SetEnabled(true);
  Kernel& kernel = sys.kernel();
  const TaskId t = kernel.CreateTask("t");
  kernel.Exec(t, ExecImage{});
  kernel.SwitchTo(t);
  FaultInjector injector(3);
  kernel.SetFaultInjector(&injector);
  injector.ArmOnce(FaultClass::kPageAllocExhaustion);
  EXPECT_THROW(kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore), OutOfMemoryError);
  kernel.SetFaultInjector(nullptr);
  EXPECT_EQ(CountInstants(sys.machine().attr(), AttrEventKind::kFaultInjected), 1u);
  EXPECT_EQ(CountInstants(sys.machine().attr(), AttrEventKind::kOomRollback), 0u);
}

TEST(AttrTest, OomForkRollbackLeavesOneInstant) {
  // 8 MB of RAM leaves 1024 allocatable frames. Fill them, give one back, and fork: the
  // child's PGD takes the last frame and its first PTE page finds none, mid-copy.
  MachineConfig machine = MachineConfig::Ppc604(185);
  machine.ram_bytes = 8ull * 1024 * 1024;
  System sys(machine, OptimizationConfig::Baseline());
  sys.machine().attr().SetEnabled(true);
  Kernel& kernel = sys.kernel();
  const TaskId parent = kernel.CreateTask("parent");
  kernel.Exec(parent, ExecImage{});
  kernel.SwitchTo(parent);
  const uint32_t start = kernel.Mmap(2048);
  uint32_t touched = 0;
  bool exhausted = false;
  try {
    for (; touched < 2048; ++touched) {
      kernel.UserTouch(EffAddr::FromPage(start + touched), AccessKind::kStore);
    }
  } catch (const OutOfMemoryError&) {
    exhausted = true;
  }
  ASSERT_TRUE(exhausted);
  ASSERT_GT(touched, 0u);
  kernel.Munmap(start, 1);
  EXPECT_THROW(kernel.Fork(parent), OutOfMemoryError);
  EXPECT_EQ(CountInstants(sys.machine().attr(), AttrEventKind::kOomRollback), 1u);
  EXPECT_EQ(CountInstants(sys.machine().attr(), AttrEventKind::kFaultInjected), 0u);
}

TEST(AttrTest, ScopesNestAndRebindMovesCycles) {
  Machine machine(MachineConfig::Ppc604(185));
  machine.attr().SetEnabled(true);
  machine.AddCycles(Cycles(7));  // base cell: instruction
  {
    CycleScope outer(machine, AttrCause::kSyscall);
    machine.AddCycles(Cycles(10));
    {
      CycleScope inner(machine, AttrCause::kHashSearchPrimary);
      machine.AddCycles(Cycles(3));
      inner.Rebind(AttrCause::kHashSearchMiss);  // primary turned out to be a miss
      machine.AddCycles(Cycles(2));
    }
    machine.AddCycles(Cycles(1));
  }
  const std::map<std::string, uint64_t> totals = AttrCauseTotals(machine.attr());
  EXPECT_EQ(totals.at("instruction"), 7u);
  EXPECT_EQ(totals.at("syscall"), 11u);
  EXPECT_EQ(totals.at("syscall;hash_miss"), 5u);
  EXPECT_EQ(totals.count("syscall;hash_primary"), 0u);
  EXPECT_EQ(machine.attr().TotalAttributed(), 23u);
}

TEST(AttrTest, CellsAreKeyedByTask) {
  Machine machine(MachineConfig::Ppc604(185));
  machine.attr().SetEnabled(true);
  machine.attr().SetCurrentTask(1);
  {
    CycleScope scope(machine, AttrCause::kPipe);
    machine.AddCycles(Cycles(4));
  }
  machine.attr().SetCurrentTask(2);
  {
    CycleScope scope(machine, AttrCause::kPipe);
    machine.AddCycles(Cycles(9));
  }
  uint64_t task1 = 0, task2 = 0;
  for (const CycleLedger::Cell& cell : machine.attr().Cells()) {
    if (cell.task == 1) task1 += cell.cycles;
    if (cell.task == 2) task2 += cell.cycles;
  }
  EXPECT_EQ(task1, 4u);
  EXPECT_EQ(task2, 9u);
}

TEST(AttrTest, FlightRingKeepsTheNewestEvents) {
  Machine machine(MachineConfig::Ppc604(185));
  machine.attr().SetEnabled(true);
  constexpr uint32_t kCloses = CycleLedger::kRingCapacity + 44;
  for (uint32_t i = 0; i < kCloses; ++i) {
    CycleScope scope(machine, AttrCause::kSyscall);
    machine.AddCycles(Cycles(i + 1));
  }
  EXPECT_EQ(machine.attr().events_recorded(), kCloses);
  const std::vector<AttrEvent> events = machine.attr().RecentEvents();
  ASSERT_EQ(events.size(), CycleLedger::kRingCapacity);
  // Oldest-first window over the last 4096 closes: cycles 45, 46, ..., 4140.
  EXPECT_EQ(events.front().cycles, 45u);
  EXPECT_EQ(events.back().cycles, kCloses);
  EXPECT_EQ(events.back().cause, AttrCause::kSyscall);
  // The histogram keeps every sample, wrapped or not.
  EXPECT_EQ(machine.attr().Latency(AttrCause::kSyscall).TotalCount(), kCloses);

  const std::string dump = FlightRecorderDump(machine.attr(), "unit test");
  EXPECT_NE(dump.find("flight recorder: unit test"), std::string::npos);
  EXPECT_NE(dump.find("syscall"), std::string::npos);
}

TEST(AttrTest, ExportersRoundTrip) {
  Machine machine(MachineConfig::Ppc604(185));
  machine.attr().SetEnabled(true);
  machine.AddCycles(Cycles(100));
  {
    CycleScope scope(machine, AttrCause::kCowFault);
    machine.AddCycles(Cycles(40));
    {
      CycleScope copy(machine, AttrCause::kCowCopy);
      machine.AddCycles(Cycles(60));
    }
  }

  const std::string folded = AttrToFolded(machine.attr());
  EXPECT_NE(folded.find("task0;instruction 100"), std::string::npos);
  EXPECT_NE(folded.find("task0;cow_fault 40"), std::string::npos);
  EXPECT_NE(folded.find("task0;cow_fault;cow_copy 60"), std::string::npos);

  const JsonValue doc = AttrToJson(machine.attr());
  EXPECT_EQ(doc.Find("total_cycles")->AsNumber(), 200.0);
  const std::map<std::string, uint64_t> totals = AttrCauseTotalsFromJson(doc);
  EXPECT_EQ(totals, AttrCauseTotals(machine.attr()));

  // A serialize -> parse round trip preserves the cause map the diff tool consumes.
  std::string error;
  const std::optional<JsonValue> parsed = JsonValue::Parse(doc.Serialize(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(AttrCauseTotalsFromJson(*parsed), totals);
}

TEST(AttrTest, DiffReportOrdersByMagnitudeAndMarksNewCauses) {
  const std::map<std::string, uint64_t> a{{"pipe", 1000}, {"syscall", 500}};
  const std::map<std::string, uint64_t> b{{"pipe", 400}, {"syscall", 510}, {"fork", 90}};
  const std::string report = AttrDiffReport("a", a, "b", b);
  const size_t pipe = report.find("pipe");
  const size_t fork = report.find("fork");
  const size_t syscall = report.find("syscall");
  ASSERT_NE(pipe, std::string::npos);
  ASSERT_NE(fork, std::string::npos);
  ASSERT_NE(syscall, std::string::npos);
  EXPECT_LT(pipe, fork);     // |delta| 600 before 90
  EXPECT_LT(fork, syscall);  // 90 before 10
  EXPECT_NE(report.find("new"), std::string::npos);
  EXPECT_NE(report.find("TOTAL"), std::string::npos);
}

TEST(AttrTest, ClearResetsButStaysEnabled) {
  Machine machine(MachineConfig::Ppc604(185));
  machine.attr().SetEnabled(true);
  {
    CycleScope scope(machine, AttrCause::kExec);
    machine.AddCycles(Cycles(5));
  }
  machine.attr().Clear();
  EXPECT_EQ(machine.attr().TotalAttributed(), 0u);
  EXPECT_EQ(machine.attr().events_recorded(), 0u);
  machine.AddCycles(Cycles(3));  // still attributing after Clear
  EXPECT_EQ(machine.attr().TotalAttributed(), 3u);
}

TEST(AttrTest, FlightRecorderDumpAndClear) {
  Machine machine(MachineConfig::Ppc604(185));
  machine.attr().SetEnabled(true);
  {
    CycleScope scope(machine, AttrCause::kContextFlushLazy);
    machine.AddCycles(Cycles(7));
  }
  machine.attr().RecordInstant(AttrEventKind::kFaultInjected, machine.Now().value);
  const std::string dump = FlightRecorderDump(machine.attr(), "seed=1");
  EXPECT_NE(dump.find("flight recorder: seed=1"), std::string::npos);
  EXPECT_NE(dump.find("context_flush_lazy"), std::string::npos);
  EXPECT_NE(dump.find("fault_injected"), std::string::npos);
  EXPECT_NE(dump.find("last 2 of 2"), std::string::npos);

  machine.attr().Clear();
  EXPECT_TRUE(machine.attr().RecentEvents().empty());
  EXPECT_EQ(machine.attr().Latency(AttrCause::kContextFlushLazy).TotalCount(), 0u);
  EXPECT_NE(FlightRecorderDump(machine.attr(), "seed=1").find("no attributed events"),
            std::string::npos);
}

}  // namespace
}  // namespace ppcmm
