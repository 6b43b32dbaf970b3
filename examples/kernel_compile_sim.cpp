// Kernel-compile simulation: the paper's favourite macro-benchmark, runnable standalone.
//
//   $ ./kernel_compile_sim [baseline|all|bat|scatter|handlers|lazy|reclaim|uncached_pt|zero]
//                          [cpu=603|604] [mhz=<n>] [units=<n>]
//
// Runs the scaled kernel build under the chosen optimization configuration and prints the
// full hardware-monitor picture: wall-clock, TLB/HTAB behaviour, cache statistics, and the
// derived rates the paper reports.

#include <cstdio>
#include <cstring>
#include <string>

#include "src/core/stats.h"
#include "src/core/system.h"
#include "src/obs/attr/attr_export.h"
#include "src/workloads/kernel_compile.h"

namespace {

ppcmm::OptimizationConfig ConfigByName(const std::string& name) {
  using ppcmm::IdleZeroPolicy;
  using ppcmm::OptimizationConfig;
  if (name == "baseline") return OptimizationConfig::Baseline();
  if (name == "all") return OptimizationConfig::AllOptimizations();
  if (name == "bat") return OptimizationConfig::OnlyBatMapping();
  if (name == "scatter") return OptimizationConfig::OnlyTunedScatter();
  if (name == "handlers") return OptimizationConfig::OnlyFastHandlers();
  if (name == "lazy") return OptimizationConfig::OnlyLazyFlush();
  if (name == "reclaim") return OptimizationConfig::OnlyIdleReclaim();
  if (name == "uncached_pt") return OptimizationConfig::OnlyUncachedPageTables();
  if (name == "zero") return OptimizationConfig::OnlyIdleZero(IdleZeroPolicy::kUncachedWithList);
  std::fprintf(stderr, "unknown config '%s', using 'all'\n", name.c_str());
  return OptimizationConfig::AllOptimizations();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppcmm;

  std::string config_name = "all";
  std::string cpu = "604";
  uint32_t mhz = 133;
  uint32_t units = 24;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("cpu=", 0) == 0) {
      cpu = arg.substr(4);
    } else if (arg.rfind("mhz=", 0) == 0) {
      mhz = static_cast<uint32_t>(std::stoul(arg.substr(4)));
    } else if (arg.rfind("units=", 0) == 0) {
      units = static_cast<uint32_t>(std::stoul(arg.substr(6)));
    } else if (arg == "--trace") {
      trace = true;
    } else {
      config_name = arg;
    }
  }

  const MachineConfig machine =
      cpu == "603" ? MachineConfig::Ppc603(mhz) : MachineConfig::Ppc604(mhz);
  const OptimizationConfig opt = ConfigByName(config_name);

  System system(machine, opt);
  if (trace) {
    system.machine().attr().SetEnabled(true);
  }
  std::printf("machine: %s\n", machine.name.c_str());
  std::printf("config:  %s (%s)\n", config_name.c_str(), opt.Describe().c_str());
  std::printf("building %u compilation units...\n\n", units);

  KernelCompileConfig cc;
  cc.compilation_units = units;
  const KernelCompileResult result = RunKernelCompile(system, cc);

  std::printf("simulated build time: %.3f s (%.1f Mcycles)\n", result.seconds,
              static_cast<double>(result.counters.cycles) / 1e6);
  std::printf("\n--- hardware monitor ---\n%s", result.counters.ToString().c_str());
  std::printf("\n--- derived ---\n");
  std::printf("htab hit rate on TLB miss: %.1f%%\n", result.counters.HtabHitRate() * 100);
  std::printf("evict/reload ratio:        %.1f%%\n",
              result.counters.EvictToReloadRatio() * 100);
  std::printf("kernel TLB share (avg):    %.1f%%\n", result.avg_kernel_tlb_share * 100);
  std::printf("\n--- end-state occupancy ---\n%s", result.end_stats.ToString().c_str());

  const CacheStats& icache = system.machine().icache().stats();
  const CacheStats& dcache = system.machine().dcache().stats();
  std::printf("\n--- caches ---\n");
  std::printf("icache: %.1f%% hit (%llu accesses)\n", icache.HitRate() * 100,
              static_cast<unsigned long long>(icache.accesses));
  std::printf("dcache: %.1f%% hit (%llu accesses, %llu uncached)\n", dcache.HitRate() * 100,
              static_cast<unsigned long long>(dcache.accesses),
              static_cast<unsigned long long>(dcache.uncached_accesses));

  if (trace) {
    const std::string dump = FlightRecorderDump(system.machine().attr(), "kernel compile", 32);
    std::printf("\n%s", dump.c_str());
  }
  return 0;
}
