// Torture-harness tests: long seed-replayable random-op runs across all three reload
// strategies with the coherence auditor running continuously, determinism of replay, fault
// injection under load, out-of-memory recovery, and detection of a sabotaged flush.

#include <gtest/gtest.h>

#include "src/obs/json.h"
#include "src/verify/torture.h"

namespace ppcmm {
namespace {

TEST(TortureTest, TenThousandOpsCleanPerReloadStrategy) {
  for (const ReloadStrategy strategy :
       {ReloadStrategy::kHardwareHtabWalk, ReloadStrategy::kSoftwareHtab,
        ReloadStrategy::kSoftwareDirect}) {
    TortureOptions options;
    options.seed = 42;
    options.ops = 10000;
    options.audit_period = 64;
    options.strategy = strategy;
    const TortureResult result = RunTorture(options);
    EXPECT_FALSE(result.failed) << ReloadStrategyName(strategy) << "\n"
                                << result.failure_report;
    EXPECT_EQ(result.ops_executed, 10000u) << ReloadStrategyName(strategy);
    EXPECT_GT(result.audit_stats.audits, 100u) << ReloadStrategyName(strategy);
    EXPECT_GT(result.audit_stats.tlb_entries_checked, 0u);
  }
}

TEST(TortureTest, SameSeedReplaysIdentically) {
  TortureOptions options;
  options.seed = 1234;
  options.ops = 2000;
  options.audit_period = 32;
  options.zombie_flood_one_in = 40;
  options.spurious_tlb_flush_one_in = 200;
  const TortureResult first = RunTorture(options);
  const TortureResult second = RunTorture(options);
  EXPECT_EQ(first.failed, second.failed);
  EXPECT_EQ(first.ops_executed, second.ops_executed);
  EXPECT_EQ(first.oom_events, second.oom_events);
  EXPECT_EQ(first.fault_fires, second.fault_fires);
  EXPECT_EQ(first.config_desc, second.config_desc);
  EXPECT_EQ(first.audit_stats.audits, second.audit_stats.audits);
  EXPECT_EQ(first.audit_stats.tlb_entries_checked, second.audit_stats.tlb_entries_checked);
  EXPECT_EQ(first.audit_stats.htab_entries_checked, second.audit_stats.htab_entries_checked);
}

TEST(TortureTest, AllFaultClassesUnderLoadStayCoherent) {
  TortureOptions options;
  options.seed = 7;
  options.ops = 3000;
  options.audit_period = 16;
  options.page_alloc_exhaustion_one_in = 400;
  options.htab_eviction_storm_one_in = 150;
  options.spurious_tlb_flush_one_in = 300;
  options.vsid_wrap_one_in = 50;
  options.zombie_flood_one_in = 60;
  const TortureResult result = RunTorture(options);
  EXPECT_FALSE(result.failed) << result.failure_report;
  EXPECT_GT(result.fault_fires, 0u);
}

TEST(TortureTest, GenuineExhaustionIsRecoveredNotFatal) {
  TortureOptions options;
  options.seed = 99;
  options.ops = 4000;
  options.audit_period = 64;
  options.ram_bytes = 8ull * 1024 * 1024;  // 1024 allocatable frames: the pool WILL run dry
  options.page_alloc_exhaustion_one_in = 200;
  const TortureResult result = RunTorture(options);
  EXPECT_FALSE(result.failed) << result.failure_report;
  EXPECT_GT(result.oom_events, 0u) << "8 MB should exhaust under this op stream";
  EXPECT_EQ(result.ops_executed + result.oom_events, 4000u);
}

TEST(TortureTest, BrokenFlushIsCaughtWithReplayableReport) {
  TortureOptions options;
  options.seed = 7;
  options.ops = 2000;
  options.audit_period = 1;  // audit after every op: pinpoint the corrupting operation
  options.break_tlb_invalidate = true;
  const TortureResult result = RunTorture(options);
  ASSERT_TRUE(result.failed) << "sabotaged tlbie escaped " << result.ops_executed << " ops";
  EXPECT_NE(result.failure_report.find("CoherenceAuditor violation"), std::string::npos)
      << result.failure_report;
  EXPECT_NE(result.failure_report.find("seed=7"), std::string::npos);
  EXPECT_NE(result.failure_report.find("op trace"), std::string::npos);

  // The report is not just structured — it replays: the same options fail identically.
  const TortureResult replay = RunTorture(options);
  EXPECT_EQ(replay.failed, true);
  EXPECT_EQ(replay.ops_executed, result.ops_executed);
  EXPECT_EQ(replay.failure_report, result.failure_report);
}

TEST(TortureTest, MultiCpuRunsStayCoherentAndReplayIdentically) {
  for (const uint32_t ncpus : {2u, 4u}) {
    TortureOptions options;
    options.seed = 42;
    options.ops = 6000;
    options.audit_period = 64;
    options.ncpus = ncpus;
    const TortureResult result = RunTorture(options);
    EXPECT_FALSE(result.failed) << "ncpus=" << ncpus << "\n" << result.failure_report;
    EXPECT_EQ(result.ops_executed, 6000u);
    EXPECT_GT(result.audit_stats.audits, 50u);

    const TortureResult replay = RunTorture(options);
    EXPECT_EQ(replay.failed, result.failed);
    EXPECT_EQ(replay.ops_executed, result.ops_executed);
    EXPECT_EQ(replay.audit_stats.audits, result.audit_stats.audits);
    EXPECT_EQ(replay.audit_stats.tlb_entries_checked, result.audit_stats.tlb_entries_checked);
  }
}

TEST(TortureTest, MultiCpuFailureReportRecordsFaultingCpuAndTlbSnapshots) {
  TortureOptions options;
  options.seed = 7;
  options.ops = 2000;
  options.audit_period = 1;
  options.ncpus = 2;
  options.break_tlb_invalidate = true;
  const TortureResult result = RunTorture(options);
  ASSERT_TRUE(result.failed) << "sabotaged tlbie escaped " << result.ops_executed
                             << " ops at ncpus=2";
  // The report must say which CPU the check fired on and dump every CPU's TLB state.
  EXPECT_NE(result.failure_report.find(" cpu="), std::string::npos) << result.failure_report;
  EXPECT_NE(result.failure_report.find("/2"), std::string::npos) << result.failure_report;
  EXPECT_NE(result.failure_report.find("per-CPU TLB snapshot"), std::string::npos)
      << result.failure_report;
  EXPECT_NE(result.failure_report.find("(faulting)"), std::string::npos)
      << result.failure_report;
  EXPECT_NE(result.failure_report.find("cpu 1:"), std::string::npos) << result.failure_report;

  // And it replays bit-identically, snapshot included.
  const TortureResult replay = RunTorture(options);
  EXPECT_EQ(replay.failure_report, result.failure_report);
}

TEST(TortureTest, ExportedDocumentsRoundTripThroughTheParser) {
  TortureOptions options;
  options.seed = 11;
  options.ops = 1500;
  options.audit_period = 64;
  options.vsid_wrap_one_in = 50;  // force rollover events into the trace
  const TortureResult result = RunTorture(options);
  ASSERT_FALSE(result.failed) << result.failure_report;

  std::string error;
  const auto trace = JsonValue::Parse(result.trace_json, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  const JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->Items().size(), 100u);
  // The satellite events actually appear in a faulted run.
  bool saw_fault_injected = false;
  for (const JsonValue& e : events->Items()) {
    const JsonValue* name = e.Find("name");
    if (name != nullptr && name->AsString() == "fault_injected") {
      saw_fault_injected = true;
    }
  }
  EXPECT_TRUE(saw_fault_injected);

  const auto metrics = JsonValue::Parse(result.metrics_json, &error);
  ASSERT_TRUE(metrics.has_value()) << error;
  const JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("hw.cycles"), nullptr);
  EXPECT_GT(counters->Find("hw.cycles")->AsNumber(), 0.0);
  ASSERT_NE(counters->Find("lat.fault_anon.count"), nullptr);
  EXPECT_GT(counters->Find("lat.fault_anon.count")->AsNumber(), 0.0);
}

TEST(TortureTest, TraceCaptureOffYieldsEmptyDocuments) {
  TortureOptions options;
  options.seed = 11;
  options.ops = 500;
  options.capture_trace = false;
  const TortureResult result = RunTorture(options);
  EXPECT_FALSE(result.failed) << result.failure_report;
  EXPECT_TRUE(result.trace_json.empty());
  EXPECT_TRUE(result.metrics_json.empty());
}

}  // namespace
}  // namespace ppcmm
