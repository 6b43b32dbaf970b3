// Perfetto exporter tests: a golden document for a minimal event set, plus structural
// checks (valid JSON, one track per CPU, slices nested inside their parents) on a real
// two-CPU trace read from the cycle ledger's ring.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/obs/perfetto.h"

namespace ppcmm {
namespace {

AttrEvent Slice(uint64_t end_cycle, uint64_t cycles, AttrCause cause, uint8_t depth,
                uint32_t task, uint8_t cpu = 0) {
  return AttrEvent{.end_cycle = end_cycle,
                   .cycles = cycles,
                   .task = task,
                   .cause = cause,
                   .depth = depth,
                   .cpu = cpu};
}

// The serializer is compact and insertion-ordered, so the document for a fixed event set
// is byte-stable: this golden catches accidental format drift.
TEST(PerfettoTest, GoldenMinimalDocument) {
  const std::vector<AttrEvent> events = {
      Slice(500, 300, AttrCause::kFaultAnon, 1, 3),
      AttrEvent{.end_cycle = 600, .task = 3, .kind = AttrEventKind::kOomRollback},
  };
  PerfettoExportOptions options;
  options.clock_mhz = 100.0;  // 200 cycles -> 2 us
  const std::string expected =
      "{\"traceEvents\":["
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"ppcmm\"}},"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"cpu 0\"}},"
      "{\"name\":\"fault_anon\",\"cat\":\"attr\",\"ph\":\"X\",\"ts\":2,\"dur\":3,"
      "\"pid\":1,\"tid\":0,\"args\":{\"task\":3,\"task_name\":\"task 3\",\"depth\":1}},"
      "{\"name\":\"oom_rollback\",\"cat\":\"instant\",\"ph\":\"i\",\"ts\":6,\"s\":\"t\","
      "\"pid\":1,\"tid\":0,\"args\":{\"task\":3,\"task_name\":\"task 3\"}}"
      "],\"displayTimeUnit\":\"ms\"}";
  EXPECT_EQ(PerfettoTraceJson(events, options).Serialize(), expected);
}

TEST(PerfettoTest, ContextSwitchSlicesShowTheHandOff) {
  // A context_switch scope closes after the scheduler handed the CPU over, so its slice
  // carries the incoming task, and that task's work follows on the same CPU track.
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  sys.machine().attr().SetEnabled(true);
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  const TaskId b = kernel.CreateTask("b");
  kernel.Exec(a, ExecImage{});
  kernel.Exec(b, ExecImage{});
  kernel.SwitchTo(a);
  kernel.SwitchTo(b);
  kernel.NullSyscall();

  const auto parsed = JsonValue::Parse(PerfettoTraceString(sys.machine().attr()));
  ASSERT_TRUE(parsed.has_value());
  std::vector<double> switched_to;
  double last_switch_end = -1.0;
  double syscall_start = -1.0;
  for (const JsonValue& e : parsed->Find("traceEvents")->Items()) {
    if (e.Find("ph")->AsString() != "X") {
      continue;
    }
    const std::string name = e.Find("name")->AsString();
    if (name == "context_switch") {
      switched_to.push_back(e.Find("args")->Find("task")->AsNumber());
      last_switch_end = e.Find("ts")->AsNumber() + e.Find("dur")->AsNumber();
    } else if (name == "syscall") {
      EXPECT_DOUBLE_EQ(e.Find("args")->Find("task")->AsNumber(), static_cast<double>(b.value));
      syscall_start = e.Find("ts")->AsNumber();
    }
  }
  EXPECT_EQ(switched_to, (std::vector<double>{static_cast<double>(a.value),
                                              static_cast<double>(b.value)}));
  EXPECT_GE(syscall_start, last_switch_end);
}

TEST(PerfettoTest, ExplicitTaskNamesWinOverDefaults) {
  const std::vector<AttrEvent> events = {
      Slice(10, 4, AttrCause::kFaultAnon, 1, 7),
      Slice(20, 4, AttrCause::kFaultAnon, 1, 8),
      Slice(30, 4, AttrCause::kIdleLoop, 1, 0),
  };
  PerfettoExportOptions options;
  options.task_names.emplace_back(7, "compiler");
  const auto parsed = JsonValue::Parse(PerfettoTraceJson(events, options).Serialize());
  ASSERT_TRUE(parsed.has_value());
  std::map<double, std::string> names;
  for (const JsonValue& e : parsed->Find("traceEvents")->Items()) {
    if (e.Find("ph")->AsString() == "X") {
      const JsonValue* args = e.Find("args");
      names[args->Find("task")->AsNumber()] = args->Find("task_name")->AsString();
    }
  }
  EXPECT_EQ(names, (std::map<double, std::string>{
                       {0.0, "kernel"}, {7.0, "compiler"}, {8.0, "task 8"}}));
}

TEST(PerfettoTest, RealTraceIsValidMonotonicAndAttributed) {
  MachineConfig machine = MachineConfig::Ppc604(185);
  machine.ncpus = 2;
  System sys(machine, OptimizationConfig::AllOptimizations());
  sys.machine().attr().SetEnabled(true);
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  const TaskId b = kernel.CreateTask("b");
  kernel.Exec(a, ExecImage{});
  kernel.Exec(b, ExecImage{});
  kernel.SwitchTo(a);
  for (uint32_t i = 0; i < 8; ++i) {
    kernel.UserTouch(EffAddr(kUserDataBase + i * kPageSize), AccessKind::kStore);
  }
  kernel.SwitchCpu(1);
  kernel.SwitchTo(b);
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);
  kernel.RunIdle(Cycles(2000));

  PerfettoExportOptions options;
  options.clock_mhz = sys.machine_config().clock_mhz;
  options.pid = 42;
  const std::string text = PerfettoTraceString(sys.machine().attr(), options);
  std::string error;
  const auto parsed = JsonValue::Parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("displayTimeUnit")->AsString(), "ms");
  // The document round-trips through the parser unchanged.
  EXPECT_EQ(parsed->Serialize(), text);

  struct Interval {
    double start;
    double end;
  };
  std::map<uint32_t, std::string> tracks;                    // tid -> thread_name
  std::map<std::pair<uint32_t, uint32_t>, Interval> latest;  // (tid, depth) -> last slice
  size_t slices = 0;
  double last_ts = -1.0;
  // Timestamps are cycles / MHz; allow for the rounding of that one division.
  const double eps = 1e-6;
  for (const JsonValue& e : parsed->Find("traceEvents")->Items()) {
    EXPECT_DOUBLE_EQ(e.Find("pid")->AsNumber(), 42.0);
    const std::string ph = e.Find("ph")->AsString();
    const auto tid = static_cast<uint32_t>(e.Find("tid")->AsNumber());
    if (ph == "M") {
      if (e.Find("name")->AsString() == "thread_name") {
        tracks[tid] = e.Find("args")->Find("name")->AsString();
      }
      continue;
    }
    ASSERT_EQ(ph, "X") << "no instants in an uninjected run";
    ++slices;
    const double ts = e.Find("ts")->AsNumber();
    EXPECT_GE(ts, last_ts);  // start order
    last_ts = ts;
    const Interval slice{ts, ts + e.Find("dur")->AsNumber()};
    const auto depth = static_cast<uint32_t>(e.Find("args")->Find("depth")->AsNumber());
    // Slices come parents first and same-depth slices on one CPU never overlap, so the
    // parent is the latest depth-1 slice on this track.
    if (depth > 1) {
      const auto parent = latest.find({tid, depth - 1});
      ASSERT_NE(parent, latest.end()) << "orphan depth " << depth << " slice at " << ts;
      EXPECT_GE(slice.start, parent->second.start - eps) << ts;
      EXPECT_LE(slice.end, parent->second.end + eps) << ts;
    }
    latest[{tid, depth}] = slice;
  }
  EXPECT_EQ(slices, sys.machine().attr().events_recorded());
  EXPECT_EQ(tracks, (std::map<uint32_t, std::string>{{0, "cpu 0"}, {1, "cpu 1"}}));
}

}  // namespace
}  // namespace ppcmm
