// The observability contract: instrumentation must never perturb the simulation.
//
// The simulator has one observation switch, CycleLedger::SetEnabled. Closing a scope
// touches ledger memory only (cells, histograms, the trace ring) — the simulated clock
// advances exclusively through Machine::AddCycles. So a run with the ledger on must
// produce hardware counters identical to the same run with observation off, and a run with
// the switch off must record nothing.

#include <gtest/gtest.h>

#include <string>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/obs/metrics.h"

namespace ppcmm {
namespace {

// A workload crossing every instrumented path: faults, COW breaks, reloads, range and
// context flushes, context switches, idle reclaim.
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
  kernel.Munmap(map, 30);        // above the cutoff: lazy context flush
  const uint32_t map2 = kernel.Mmap(4);
  for (uint32_t i = 0; i < 4; ++i) {
    kernel.UserTouch(EffAddr::FromPage(map2 + i), AccessKind::kStore);
  }
  kernel.Munmap(map2, 4);        // below the cutoff: eager per-page flush
  kernel.SwitchTo(a);
  kernel.Exit(child);
  kernel.RunIdle(Cycles(20000));  // reclaim passes
}

TEST(ObsGuardTest, EnabledObserversDoNotPerturbTheSimulation) {
  System off(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Workload(off);

  System on(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  on.machine().attr().SetEnabled(true);
  Workload(on);

  // The instrumented run really observed something...
  EXPECT_GT(on.machine().attr().Latency(AttrCause::kFaultAnon).TotalCount(), 0u);
  EXPECT_GT(on.machine().attr().events_recorded(), 0u);
  EXPECT_GT(MetricsRegistry(on).Snapshot().counters.size(), 0u);

  // ...and yet every hardware counter — cycles first of all — is identical.
  const HwCounters& c_off = off.counters();
  const HwCounters& c_on = on.counters();
  c_off.ForEachField([&](const char* name, uint64_t value_off, bool) {
    bool found = false;
    c_on.ForEachField([&](const char* on_name, uint64_t value_on, bool) {
      if (std::string(name) == on_name) {
        EXPECT_EQ(value_off, value_on) << name;
        found = true;
      }
    });
    EXPECT_TRUE(found) << name;
  });
  EXPECT_EQ(c_off.cycles, c_on.cycles);
}

TEST(ObsGuardTest, DisabledObserversRecordNothing) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  ASSERT_FALSE(sys.machine().attr().enabled());
  Workload(sys);
  // Counters-only overhead when off: no trace ring allocated, no events, while the
  // ordinary hardware counters kept counting.
  EXPECT_FALSE(sys.machine().attr().ring_allocated());
  EXPECT_EQ(sys.machine().attr().events_recorded(), 0u);
  EXPECT_GT(sys.counters().page_faults, 0u);
  // The metrics view over a disabled machine reports zero latency samples.
  const MetricsSnapshot snap = MetricsRegistry(sys).Snapshot();
  const uint64_t* count = snap.FindCounter("lat.fault_anon.count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(*count, 0u);
}

}  // namespace
}  // namespace ppcmm
