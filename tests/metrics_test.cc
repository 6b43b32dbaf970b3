// MetricsRegistry tests: snapshot coverage across all four name families, diff semantics,
// and JSON/CSV round-trips.

#include <gtest/gtest.h>

#include <string>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/obs/metrics.h"

namespace ppcmm {
namespace {

// A small deterministic workload that touches every instrumented path family.
TaskId RunWorkload(System& sys) {
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  const TaskId b = kernel.CreateTask("b");
  kernel.Exec(a, ExecImage{.text_pages = 4, .data_pages = 64, .stack_pages = 4});
  kernel.Exec(b, ExecImage{.text_pages = 4, .data_pages = 64, .stack_pages = 4});
  kernel.SwitchTo(a);
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.UserTouch(EffAddr(kUserDataBase + i * kPageSize), AccessKind::kStore);
  }
  kernel.SwitchTo(b);
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);
  kernel.SwitchTo(a);
  return a;
}

TEST(MetricsTest, SnapshotCoversAllNameFamilies) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  sys.machine().attr().SetEnabled(true);
  const TaskId a = RunWorkload(sys);

  const MetricsRegistry registry(sys);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(snap.cycle, 0u);

  // hw.*: every X-macro field appears, counters and gauges filed correctly.
  const uint64_t* cycles = snap.FindCounter("hw.cycles");
  ASSERT_NE(cycles, nullptr);
  EXPECT_EQ(*cycles, snap.cycle);
  EXPECT_NE(snap.FindCounter("hw.page_faults"), nullptr);
  EXPECT_NE(snap.FindGauge("hw.kernel_tlb_highwater"), nullptr);
  EXPECT_EQ(snap.FindCounter("hw.kernel_tlb_highwater"), nullptr);

  // task.*: attribution for the task that took the faults.
  const std::string task_prefix = "task." + std::to_string(a.value) + ".";
  const uint64_t* faults = snap.FindCounter(task_prefix + "page_faults");
  ASSERT_NE(faults, nullptr);
  EXPECT_GT(*faults, 0u);
  const uint64_t* switches = snap.FindCounter(task_prefix + "switches_in");
  ASSERT_NE(switches, nullptr);
  EXPECT_EQ(*switches, 2u);

  // sys.*: derived gauges.
  const double* utilization = snap.FindGauge("sys.htab_utilization");
  ASSERT_NE(utilization, nullptr);
  EXPECT_GT(*utilization, 0.0);
  EXPECT_NE(snap.FindGauge("sys.tlb_kernel_share"), nullptr);
  EXPECT_NE(snap.FindGauge("sys.htab_zombies"), nullptr);

  // lat.*: the anonymous-fault histogram recorded, and its percentiles are ordered.
  const uint64_t* fault_count = snap.FindCounter("lat.fault_anon.count");
  ASSERT_NE(fault_count, nullptr);
  EXPECT_GT(*fault_count, 0u);
  const double* p50 = snap.FindGauge("lat.fault_anon.p50");
  const double* p99 = snap.FindGauge("lat.fault_anon.p99");
  const double* max = snap.FindGauge("lat.fault_anon.max");
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p99, nullptr);
  ASSERT_NE(max, nullptr);
  EXPECT_GT(*p50, 0.0);
  EXPECT_LE(*p50, *p99);
  EXPECT_LE(*p99, *max);
}

TEST(MetricsTest, DiffSubtractsCountersKeepsGauges) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  const MetricsRegistry registry(sys);
  const MetricsSnapshot before = registry.Snapshot();
  RunWorkload(sys);
  const MetricsSnapshot after = registry.Snapshot();
  const MetricsSnapshot delta = after.Diff(before);

  EXPECT_EQ(delta.cycle, after.cycle - before.cycle);
  const uint64_t* d_cycles = delta.FindCounter("hw.cycles");
  ASSERT_NE(d_cycles, nullptr);
  EXPECT_EQ(*d_cycles, delta.cycle);
  // A counter absent in the earlier snapshot (a task born inside the interval) keeps its
  // full value.
  const uint64_t* born = delta.FindCounter("task.1.switches_in");
  ASSERT_NE(born, nullptr);
  const uint64_t* after_val = after.FindCounter("task.1.switches_in");
  ASSERT_NE(after_val, nullptr);
  EXPECT_EQ(*born, *after_val);
  // Gauges keep the later snapshot's value.
  const double* util = delta.FindGauge("sys.htab_utilization");
  ASSERT_NE(util, nullptr);
  EXPECT_DOUBLE_EQ(*util, *after.FindGauge("sys.htab_utilization"));
}

TEST(MetricsTest, JsonRoundTrips) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  sys.machine().attr().SetEnabled(true);
  RunWorkload(sys);
  const MetricsSnapshot snap = MetricsRegistry(sys).Snapshot();

  std::string error;
  const auto parsed = JsonValue::Parse(snap.ToJson().Serialize(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_DOUBLE_EQ(parsed->Find("cycle")->AsNumber(), static_cast<double>(snap.cycle));
  const JsonValue* counters = parsed->Find("counters");
  const JsonValue* gauges = parsed->Find("gauges");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(counters->Size(), snap.counters.size());
  EXPECT_EQ(gauges->Size(), snap.gauges.size());
  EXPECT_DOUBLE_EQ(counters->Find("hw.cycles")->AsNumber(),
                   static_cast<double>(snap.cycle));
}

}  // namespace
}  // namespace ppcmm
