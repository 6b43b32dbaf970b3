// Host throughput — how fast the simulator itself runs.
//
// Unlike every other bench, the numbers here are about the *host*: simulated accesses and
// simulated cycles retired per host second, for each reload strategy, with the MMU's
// translation spans off (the per-access reference) and on, and with the configuration
// sweep run serially versus on the SweepRunner thread pool. Spans must be
// simulation-invisible, so each off/on pair also cross-checks that total simulated cycles
// are bit-identical (fast_path_test proves the full counter set; this is the cheap
// always-on guard). The metric names keep their historical fast_path prefix.
//
// PPCMM_QUICK=1 shrinks the workload for smoke runs (bench/run_all.sh --quick and the
// ctest-registered host_throughput_test).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/kernel/kernel.h"
#include "src/kernel/layout.h"
#include "src/mmu/mmu.h"
#include "src/sim/sweep_runner.h"
#include "src/workloads/kernel_compile.h"
#include "src/workloads/report.h"

namespace ppcmm {
namespace {

struct Strategy {
  const char* name;
  MachineConfig machine;
  OptimizationConfig opts;
};

struct RunStats {
  double host_seconds = 0;
  uint64_t sim_accesses = 0;
  uint64_t sim_cycles = 0;
  double span_share = 0;
};

bool QuickMode() {
  const char* env = std::getenv("PPCMM_QUICK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// One full simulation of the kernel compile under `strategy`, timed on the host clock.
RunStats RunOnce(const Strategy& strategy, uint32_t units) {
  const auto start = std::chrono::steady_clock::now();
  System system(strategy.machine, strategy.opts);
  KernelCompileConfig cc;
  cc.compilation_units = units;
  RunKernelCompile(system, cc);
  RunStats stats;
  stats.host_seconds = Seconds(std::chrono::steady_clock::now() - start);
  const HwCounters& c = system.counters();
  stats.sim_accesses = c.itlb_accesses + c.dtlb_accesses + c.bat_translations;
  stats.sim_cycles = c.cycles;
  const uint64_t spans = system.mmu().span_accesses();
  const uint64_t walks = system.mmu().fast_path_misses();
  stats.span_share = spans + walks == 0 ? 0.0
                                        : static_cast<double>(spans) /
                                              static_cast<double>(spans + walks);
  return stats;
}

// Best host times for one strategy with spans off and on. The off/on runs are
// interleaved round by round (off, on, off, on, ...): on a shared host, machine-speed
// drift then lands on both sides of the ratio instead of biasing whichever phase happened
// to run later. The simulation itself is deterministic; only host noise varies.
struct OffOnStats {
  RunStats off;
  RunStats on;
};

OffOnStats RunInterleavedBest(const Strategy& strategy, uint32_t units, int reps) {
  OffOnStats best;
  for (int r = 0; r < reps; ++r) {
    const RunStats off = [&] {
      const ScopedSpanDefault spans_off(false);
      return RunOnce(strategy, units);
    }();
    const RunStats on = RunOnce(strategy, units);
    if (r == 0 || off.host_seconds < best.off.host_seconds) {
      best.off = off;
    }
    if (r == 0 || on.host_seconds < best.on.host_seconds) {
      best.on = on;
    }
  }
  return best;
}

// ---- batched translation spans ----
//
// Streams page-grained runs through a resident working set — the workload shape the
// UserTouchRun/Mmu::AccessRun batching API exists for. `batched` off replays the exact
// same access stream one UserTouch at a time, so the off/on pair both times the span
// replay against per-access translation and cross-checks that the batching is
// simulation-invisible (identical simulated accesses and cycles).
struct StreamStats {
  double host_seconds = 0;
  uint64_t sim_accesses = 0;
  uint64_t sim_cycles = 0;
  uint64_t span_runs = 0;
  uint64_t span_accesses = 0;
};

StreamStats RunStream(const Strategy& strategy, uint32_t ws_pages, uint32_t stride,
                      int passes, bool batched) {
  System system(strategy.machine, strategy.opts);
  Kernel& kernel = system.kernel();
  const TaskId task = kernel.CreateTask("stream");
  kernel.Exec(task, ExecImage{.text_pages = 4, .data_pages = ws_pages + 4, .stack_pages = 4});
  kernel.SwitchTo(task);
  const EffAddr heap(kUserDataBase);
  const uint32_t count = ws_pages * kPageSize / stride;
  // Fault the set in with stores (installs writable+changed PTEs) so the timed passes
  // measure steady-state translation, not demand paging.
  kernel.UserTouchRun(heap, stride, count, AccessKind::kStore);
  const HwCounters before = system.counters();
  const auto start = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; ++p) {
    if (batched) {
      kernel.UserTouchRun(heap, stride, count, AccessKind::kLoad);
    } else {
      for (uint32_t i = 0; i < count; ++i) {
        kernel.UserTouch(heap + i * stride, AccessKind::kLoad);
      }
    }
  }
  StreamStats stats;
  stats.host_seconds = Seconds(std::chrono::steady_clock::now() - start);
  const HwCounters d = system.counters().Diff(before);
  stats.sim_accesses = d.itlb_accesses + d.dtlb_accesses + d.bat_translations;
  stats.sim_cycles = d.cycles;
  stats.span_runs = system.mmu().span_runs();
  stats.span_accesses = system.mmu().span_accesses();
  return stats;
}

int Main() {
  const bool quick = QuickMode();
  // Full-mode runs are sized so one simulation takes a few hundred host milliseconds —
  // short windows drown in scheduler noise on a shared host.
  const uint32_t units = quick ? 2 : 48;
  const int reps = quick ? 1 : 5;
  BenchReport::Global().SetName("host_throughput");
  BenchReport::Global().SetMeta("workload", "kernel compile");
  BenchReport::Global().SetMeta("strategies", "604 hw-walk, 603 sw-htab, 603 direct");

  Headline("Host throughput: simulator speed per reload strategy (kernel compile)");
  std::printf("workload: kernel compile, %u units, best of %d host-timed runs%s\n\n", units,
              reps, quick ? " (quick mode)" : "");

  const std::vector<Strategy> strategies = {
      {"604 hw-walk baseline", MachineConfig::Ppc604(133), OptimizationConfig::Baseline()},
      {"604 hw-walk optimized", MachineConfig::Ppc604(133),
       OptimizationConfig::AllOptimizations()},
      {"603 sw-htab baseline", MachineConfig::Ppc603(133), OptimizationConfig::Baseline()},
      {"603 direct reload", MachineConfig::Ppc603(133), OptimizationConfig::OnlyDirectReload()},
  };

  TextTable table({"strategy", "Maccess/s off", "Maccess/s on", "Mcycles/s on", "span speedup",
                   "span share"});
  double fast_speedup_sum = 0;
  bool cycles_identical = true;
  // One untimed warmup so first-run costs (allocator growth, cold host caches) are not
  // charged to the first timed configuration.
  RunOnce(strategies.front(), quick ? 1 : 2);
  for (const Strategy& strategy : strategies) {
    const auto [off, on] = RunInterleavedBest(strategy, units, reps);
    cycles_identical = cycles_identical && off.sim_cycles == on.sim_cycles &&
                       off.sim_accesses == on.sim_accesses;
    const double speedup = off.host_seconds / on.host_seconds;
    fast_speedup_sum += speedup;
    const double maccess_off =
        static_cast<double>(off.sim_accesses) / off.host_seconds / 1e6;
    const double maccess_on = static_cast<double>(on.sim_accesses) / on.host_seconds / 1e6;
    const double mcycles_on = static_cast<double>(on.sim_cycles) / on.host_seconds / 1e6;
    table.AddRow({strategy.name, TextTable::Num(maccess_off, 2), TextTable::Num(maccess_on, 2),
                  TextTable::Num(mcycles_on, 1), TextTable::Num(speedup, 2) + "x",
                  TextTable::Num(on.span_share * 100.0, 1) + "%"});
    BenchReport::Global().Add(std::string(strategy.name) + ".sim_accesses_per_sec_fast_on",
                              maccess_on * 1e6, "1/s");
    BenchReport::Global().Add(std::string(strategy.name) + ".sim_cycles_per_sec_fast_on",
                              mcycles_on * 1e6, "1/s");
    BenchReport::Global().Add(std::string(strategy.name) + ".fast_path_speedup", speedup, "x");
    BenchReport::Global().Add(std::string(strategy.name) + ".fast_path_hit_rate",
                              on.span_share, "");
  }
  std::printf("%s\n", table.ToString().c_str());
  const double fast_speedup = fast_speedup_sum / static_cast<double>(strategies.size());
  std::printf("spans simulation-invisible (cycles+accesses identical off/on): %s\n",
              cycles_identical ? "HOLDS" : "FAILS");
  std::printf("mean spans-on speedup: %.2fx\n", fast_speedup);

  Headline("Batched translation spans: page-grained runs vs per-access touches");
  const uint32_t ws_pages = quick ? 256 : 1024;  // 1 MB / 4 MB resident working set
  TextTable span_table(
      {"strategy", "stride", "Maccess/s per-access", "Maccess/s batched", "span speedup",
       "accesses/span"});
  bool spans_identical = true;
  double best_batched_maccess = 0;
  for (const Strategy& strategy :
       {strategies[1] /* 604 optimized */, strategies[3] /* 603 direct */}) {
    for (const uint32_t stride : {4u, 32u}) {
      // Size passes so the batched side runs a few hundred host ms in full mode.
      const uint32_t per_pass = ws_pages * kPageSize / stride;
      const int passes = quick ? 2 : static_cast<int>(stride == 4 ? 24 : 96);
      StreamStats single;
      StreamStats span;
      for (int r = 0; r < reps; ++r) {
        const StreamStats s = RunStream(strategy, ws_pages, stride, passes, false);
        const StreamStats b = RunStream(strategy, ws_pages, stride, passes, true);
        if (r == 0 || s.host_seconds < single.host_seconds) single = s;
        if (r == 0 || b.host_seconds < span.host_seconds) span = b;
      }
      spans_identical = spans_identical && single.sim_accesses == span.sim_accesses &&
                        single.sim_cycles == span.sim_cycles;
      const double m_single =
          static_cast<double>(single.sim_accesses) / single.host_seconds / 1e6;
      const double m_span = static_cast<double>(span.sim_accesses) / span.host_seconds / 1e6;
      if (m_span > best_batched_maccess) best_batched_maccess = m_span;
      const double per_span =
          span.span_runs == 0 ? 0.0
                              : static_cast<double>(span.span_accesses) /
                                    static_cast<double>(span.span_runs);
      span_table.AddRow({strategy.name, std::to_string(stride), TextTable::Num(m_single, 2),
                         TextTable::Num(m_span, 2),
                         TextTable::Num(m_span / m_single, 2) + "x",
                         TextTable::Num(per_span, 1)});
      const std::string key =
          std::string(strategy.name) + ".stride" + std::to_string(stride);
      BenchReport::Global().Add(key + ".batched_accesses_per_sec", m_span * 1e6, "1/s");
      BenchReport::Global().Add(key + ".span_speedup", m_span / m_single, "x");
      (void)per_pass;
    }
  }
  std::printf("%s\n", span_table.ToString().c_str());
  std::printf("batched runs simulation-invisible (cycles+accesses identical): %s\n",
              spans_identical ? "HOLDS" : "FAILS");
  std::printf("best batched throughput: %.1f Maccess/s\n", best_batched_maccess);
  BenchReport::Global().Add("batched_best_accesses_per_sec", best_batched_maccess * 1e6,
                            "1/s");

  Headline("Parallel sweep: all strategies, serial vs SweepRunner");
  const auto serial_start = std::chrono::steady_clock::now();
  for (const Strategy& strategy : strategies) {
    RunOnce(strategy, units);
  }
  const double serial_s = Seconds(std::chrono::steady_clock::now() - serial_start);

  SweepRunner runner;
  const auto par_start = std::chrono::steady_clock::now();
  runner.Map(strategies.size(), [&](size_t i) { return RunOnce(strategies[i], units); });
  const double parallel_s = Seconds(std::chrono::steady_clock::now() - par_start);

  // Combined: the shipped configuration (spans on, parallel sweep) against the all-slow
  // baseline (spans off, serial sweep).
  const double baseline_s = [&] {
    const ScopedSpanDefault spans_off(false);
    const auto base_start = std::chrono::steady_clock::now();
    for (const Strategy& strategy : strategies) {
      RunOnce(strategy, units);
    }
    return Seconds(std::chrono::steady_clock::now() - base_start);
  }();

  const double parallel_speedup = serial_s / parallel_s;
  const double combined_speedup = baseline_s / parallel_s;
  std::printf("  sweep threads: %u (host cores: %u)\n", runner.threads(),
              std::thread::hardware_concurrency());
  std::printf("  serial %.2fs, parallel %.2fs -> %.2fx; combined vs spans-off serial %.2fx\n",
              serial_s, parallel_s, parallel_speedup, combined_speedup);
  BenchReport::Global().Add("sweep_threads", runner.threads(), "");
  BenchReport::Global().Add("parallel_speedup", parallel_speedup, "x");
  BenchReport::Global().Add("fast_path_mean_speedup", fast_speedup, "x");
  BenchReport::Global().Add("combined_speedup_vs_serial_fast_off", combined_speedup, "x");

  return cycles_identical && spans_identical ? 0 : 1;
}

}  // namespace
}  // namespace ppcmm

int main() { return ppcmm::Main(); }
