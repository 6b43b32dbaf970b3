// Throughput smoke: translation spans engage on a realistic workload while staying
// simulation-invisible. The wall-clock speedup itself is measured by bench/host_throughput
// (host timing is too noisy for a CI assertion).

#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/workloads/kernel_compile.h"

namespace ppcmm {
namespace {

TEST(HostThroughputTest, FastPathCarriesTheKernelCompile) {
  // Spans are on by default. The compile's page copies and idle spins replay through them
  // (about 11% of its accesses); every other access is one full Access() walk.
  System sys(MachineConfig::Ppc604(133), OptimizationConfig::AllOptimizations());
  KernelCompileConfig cc;
  cc.compilation_units = 4;
  RunKernelCompile(sys, cc);

  const uint64_t spans = sys.mmu().span_accesses();
  const uint64_t walks = sys.mmu().fast_path_misses();
  ASSERT_GT(spans + walks, 10000u) << "workload too small to be a meaningful smoke";
  EXPECT_EQ(sys.mmu().fast_path_hits(), spans);
  const double share = static_cast<double>(spans) / static_cast<double>(spans + walks);
  EXPECT_GT(share, 0.10) << spans << " span accesses / " << walks << " walks";
}

TEST(HostThroughputTest, FastPathIsSimulationInvisibleOnTheSmokeWorkload) {
  auto cycles = [](bool spans) {
    const ScopedSpanDefault spans_default(spans);
    System sys(MachineConfig::Ppc603(133), OptimizationConfig::Baseline());
    KernelCompileConfig cc;
    cc.compilation_units = 1;
    RunKernelCompile(sys, cc);
    return sys.counters().cycles;
  };
  EXPECT_EQ(cycles(false), cycles(true));
}

}  // namespace
}  // namespace ppcmm
