// Cross-machine sanity sweeps: the same workload across every machine profile must scale
// sensibly with clock rate, cache size, and board quality.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/sim/rng.h"
#include "src/sim/sweep_runner.h"
#include "src/workloads/lmbench.h"

namespace ppcmm {
namespace {

struct MachineCase {
  std::string name;
  MachineConfig config;
};

std::vector<MachineCase> Machines() {
  return {
      {"603_133", MachineConfig::Ppc603(133)},
      {"603_180", MachineConfig::Ppc603(180)},
      {"604_133", MachineConfig::Ppc604(133)},
      {"604_185", MachineConfig::Ppc604(185)},
      {"604_200_fast", MachineConfig::Ppc604FastBoard(200)},
  };
}

class MachineSweep : public ::testing::TestWithParam<int> {
 protected:
  MachineConfig Config() const { return Machines()[GetParam()].config; }
};

TEST_P(MachineSweep, LmBenchCorePointsAreSane) {
  System sys(Config(), OptimizationConfig::AllOptimizations());
  LmBenchParams params;
  params.syscall_iters = 100;
  params.ctxsw_passes = 15;
  params.pipe_latency_iters = 30;
  LmBench suite(sys, params);
  const double null_us = suite.NullSyscallUs();
  const double ctxsw_us = suite.ContextSwitchUs(2);
  const double pipe_us = suite.PipeLatencyUs();
  EXPECT_GT(null_us, 0.1);
  EXPECT_LT(null_us, 50);
  EXPECT_GT(ctxsw_us, 0.5);
  EXPECT_LT(ctxsw_us, 200);
  EXPECT_GT(pipe_us, ctxsw_us);  // a pipe hop includes a switch plus two syscalls
  EXPECT_LT(pipe_us, 500);
}

TEST_P(MachineSweep, KernelBootAndLifecycle) {
  System sys(Config(), OptimizationConfig::Baseline());
  Kernel& kernel = sys.kernel();
  const TaskId t = kernel.CreateTask("boot");
  kernel.Exec(t, ExecImage{});
  kernel.SwitchTo(t);
  kernel.UserTouchRange(EffAddr(kUserDataBase), 8 * kPageSize, kPageSize, AccessKind::kStore);
  kernel.NullSyscall();
  kernel.Exit(t);
  EXPECT_EQ(kernel.TaskCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllMachines, MachineSweep, ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return Machines()[param_info.param].name;
                         });

TEST(MachineSweepRunnerTest, ParallelSweepMatchesSerialAcrossAllProfiles) {
  // The whole machine matrix through SweepRunner: per-profile cycle totals must be
  // byte-identical whether the sweep runs on one thread or a pool — each task owns its
  // System, nothing is shared.
  const std::vector<MachineCase> machines = Machines();
  const auto simulate = [&](size_t i) {
    System sys(machines[i].config, OptimizationConfig::AllOptimizations());
    LmBenchParams params;
    params.syscall_iters = 50;
    params.ctxsw_passes = 8;
    params.pipe_latency_iters = 15;
    LmBench suite(sys, params);
    suite.NullSyscallUs();
    suite.ContextSwitchUs(2);
    suite.PipeLatencyUs();
    return sys.counters().cycles;
  };
  const std::vector<uint64_t> serial = SweepRunner(1).Map(machines.size(), simulate);
  const std::vector<uint64_t> parallel = SweepRunner(4).Map(machines.size(), simulate);
  ASSERT_EQ(serial.size(), machines.size());
  EXPECT_EQ(serial, parallel);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_GT(serial[i], 0u) << machines[i].name;
  }
}

TEST(MachineSweepRunnerTest, SmpShootdownStormIsBitIdenticalAcrossRunsAndShards) {
  // The SMP interleaving model must stay deterministic under every sweep topology: the
  // same (seed, ncpus) cell produces bit-identical cycle totals and shootdown counters
  // whether simulated twice in-process, on a thread pool, or split into shards that are
  // swept separately. This is the property that makes multi-CPU BENCH rows trustworthy.
  struct Cell {
    uint64_t seed;
    uint32_t ncpus;
  };
  const std::vector<Cell> cells = {{11, 1}, {11, 2}, {11, 4}, {12, 2}, {12, 4}, {13, 4}};
  const auto simulate = [&](size_t i) {
    MachineConfig config = MachineConfig::Ppc604(185);
    config.ncpus = cells[i].ncpus;
    System sys(config, OptimizationConfig::Baseline());
    Kernel& kernel = sys.kernel();
    std::vector<TaskId> tasks;
    for (uint32_t cpu = 0; cpu < cells[i].ncpus; ++cpu) {
      kernel.SwitchCpu(cpu);
      const TaskId t = kernel.CreateTask("cell");
      kernel.Exec(t, ExecImage{.text_pages = 4, .data_pages = 16, .stack_pages = 2});
      kernel.SwitchTo(t);
    }
    Rng rng(cells[i].seed);
    for (uint32_t round = 0; round < 40; ++round) {
      kernel.SwitchCpu(static_cast<uint32_t>(rng.NextBelow(cells[i].ncpus)));
      const uint32_t pages = 1 + static_cast<uint32_t>(rng.NextBelow(4));
      const uint32_t start = kernel.Mmap(pages);
      for (uint32_t p = 0; p < pages; ++p) {
        kernel.UserTouch(EffAddr::FromPage(start + p), AccessKind::kStore);
      }
      kernel.Munmap(start, pages);
    }
    // Fold the observable outcome into one word: the global clock, every per-CPU clock,
    // and the shootdown counters all feed the hash, so any nondeterminism surfaces.
    uint64_t digest = sys.counters().cycles;
    for (uint32_t cpu = 0; cpu < cells[i].ncpus; ++cpu) {
      digest = digest * 1099511628211ull ^ sys.machine().CpuCycles(cpu);
    }
    digest = digest * 1099511628211ull ^ sys.counters().tlb_shootdown_ipis;
    digest = digest * 1099511628211ull ^ sys.counters().tlb_shootdown_idle_skips;
    digest = digest * 1099511628211ull ^ sys.counters().tlb_shootdown_deferred_flushes;
    return digest;
  };
  const std::vector<uint64_t> once = SweepRunner(1).Map(cells.size(), simulate);
  const std::vector<uint64_t> again = SweepRunner(1).Map(cells.size(), simulate);
  const std::vector<uint64_t> pooled = SweepRunner(3).Map(cells.size(), simulate);
  // Two shards of the cell list, each on its own pool, merge back to the same results: no
  // cell depends on which others share its sweep.
  const size_t half = cells.size() / 2;
  std::vector<uint64_t> sharded = SweepRunner(2).Map(half, simulate);
  const std::vector<uint64_t> rest =
      SweepRunner(2).Map(cells.size() - half, [&](size_t i) { return simulate(half + i); });
  sharded.insert(sharded.end(), rest.begin(), rest.end());
  EXPECT_EQ(once, again);
  EXPECT_EQ(once, pooled);
  EXPECT_EQ(once, sharded);
  // Width must matter: the same seed at different ncpus is a different machine.
  EXPECT_NE(once[0], once[1]);
  EXPECT_NE(once[1], once[2]);
}

TEST(MachineScalingTest, FasterClockIsFasterWallClock) {
  // Same machine, same work, higher clock: fewer microseconds (cycles identical).
  auto run = [](uint32_t mhz) {
    System sys(MachineConfig::Ppc604(mhz), OptimizationConfig::AllOptimizations());
    Kernel& kernel = sys.kernel();
    const TaskId t = kernel.CreateTask("t");
    kernel.Exec(t, ExecImage{});
    kernel.SwitchTo(t);
    for (int i = 0; i < 100; ++i) {
      kernel.NullSyscall();
    }
    return std::pair<double, uint64_t>(sys.ElapsedMicros(), sys.counters().cycles);
  };
  const auto [us_133, cycles_133] = run(133);
  const auto [us_200, cycles_200] = run(200);
  EXPECT_EQ(cycles_133, cycles_200);  // cycle-accurate: clock only changes wall time
  EXPECT_LT(us_200, us_133);
}

TEST(MachineScalingTest, FastBoardBeatsSlowBoardOnMissHeavyWork) {
  auto run = [](const MachineConfig& mc) {
    System sys(mc, OptimizationConfig::AllOptimizations());
    Kernel& kernel = sys.kernel();
    const TaskId t = kernel.CreateTask("t");
    kernel.Exec(t, ExecImage{.text_pages = 4, .data_pages = 512, .stack_pages = 2});
    kernel.SwitchTo(t);
    // A 400-page strided walk: misses everywhere, so memory timing dominates.
    for (uint32_t p = 0; p < 400; ++p) {
      kernel.UserTouch(EffAddr(kUserDataBase + p * kPageSize), AccessKind::kStore);
    }
    return sys.counters().cycles;
  };
  const uint64_t normal = run(MachineConfig::Ppc604(200));
  const uint64_t fast = run(MachineConfig::Ppc604FastBoard(200));
  EXPECT_LT(fast, normal);
}

}  // namespace
}  // namespace ppcmm
