// SweepRunner contract: deterministic, index-ordered results regardless of thread count,
// with simulations that are fully independent per task.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/sim/sweep_runner.h"

namespace ppcmm {
namespace {

TEST(SweepRunnerTest, ResultsComeBackInIndexOrder) {
  SweepRunner runner(4);
  const std::vector<size_t> results = runner.Map(64, [](size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 64u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(SweepRunnerTest, EveryIndexRunsExactlyOnce) {
  std::vector<std::atomic<int>> ran(100);
  SweepRunner runner(8);
  runner.Map(100, [&](size_t i) {
    ran[i].fetch_add(1);
    return 0;
  });
  for (size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i].load(), 1) << i;
  }
}

TEST(SweepRunnerTest, ParallelMatchesSerialOnRealSimulations) {
  // One cycle-exact System per index; byte-identical totals whether the sweep runs inline
  // on one thread or across a pool.
  const auto simulate = [](size_t i) {
    System sys(MachineConfig::Ppc604(133 + static_cast<uint32_t>(i)),
               OptimizationConfig::AllOptimizations());
    Kernel& kernel = sys.kernel();
    const TaskId t = kernel.CreateTask("t");
    kernel.Exec(t, ExecImage{.text_pages = 2, .data_pages = 24, .stack_pages = 2});
    kernel.SwitchTo(t);
    for (uint32_t p = 0; p < 24; ++p) {
      kernel.UserTouch(EffAddr(kUserDataBase + p * kPageSize), AccessKind::kStore);
    }
    return sys.counters().cycles;
  };
  SweepRunner serial(1);
  SweepRunner parallel(4);
  const std::vector<uint64_t> expected = serial.Map(8, simulate);
  const std::vector<uint64_t> actual = parallel.Map(8, simulate);
  EXPECT_EQ(expected, actual);
}

TEST(SweepRunnerTest, LowestIndexExceptionWinsAndPropagates) {
  SweepRunner runner(4);
  try {
    runner.Map(32, [](size_t i) -> int {
      if (i == 5 || i == 20) {
        throw std::runtime_error("boom at " + std::to_string(i));
      }
      return 0;
    });
    FAIL() << "expected the exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 5");
  }
}

TEST(SweepRunnerTest, SerialPathHandlesExceptionsToo) {
  SweepRunner runner(1);
  EXPECT_THROW(runner.Map(4,
                          [](size_t i) -> int {
                            if (i == 2) {
                              throw std::runtime_error("serial boom");
                            }
                            return 0;
                          }),
               std::runtime_error);
}

TEST(SweepRunnerTest, EmptyAndSingleItemSweepsWork) {
  SweepRunner runner(8);
  EXPECT_TRUE(runner.Map(0, [](size_t) { return 1; }).empty());
  const std::vector<int> one = runner.Map(1, [](size_t) { return 7; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 7);
}

TEST(SweepRunnerTest, MoreThreadsThanItemsIsFine) {
  SweepRunner runner(16);
  const std::vector<size_t> results = runner.Map(3, [](size_t i) { return i + 1; });
  EXPECT_EQ(results, (std::vector<size_t>{1, 2, 3}));
}

TEST(SweepRunnerTest, ExplicitThreadCountIsHonored) {
  EXPECT_EQ(SweepRunner(3).threads(), 3u);
  EXPECT_GE(SweepRunner().threads(), 1u);  // auto: env override or hardware_concurrency
}

}  // namespace
}  // namespace ppcmm
