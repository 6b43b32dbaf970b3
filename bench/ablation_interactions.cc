// Ablation — optimization interactions.
//
// §4: "many optimizations did not interact as we expected them to and the end effect was
// not the sum of all the optimizations. Some optimizations even cancelled the effect of
// previous ones." This bench measures the kernel compile across the toggle lattice: each
// optimization alone, each one removed from the full set, and the cumulative build-up in
// the paper's order.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/sweep_runner.h"
#include "src/workloads/kernel_compile.h"
#include "src/workloads/report.h"

namespace ppcmm {
namespace {

double CompileSeconds(const OptimizationConfig& config) {
  System system(MachineConfig::Ppc604(133), config);
  KernelCompileConfig cc;
  cc.compilation_units = 12;
  return RunKernelCompile(system, cc).seconds;
}

// Every configuration the bench measures is known up front, so build the whole lattice
// first and sweep it across host threads; each CompileSeconds call owns its System.
std::vector<double> CompileAll(const std::vector<OptimizationConfig>& configs) {
  return SweepRunner().Map(configs.size(),
                           [&](size_t i) { return CompileSeconds(configs[i]); });
}

int Main() {
  Headline("Ablation: optimization interactions on the kernel compile (604/133, 12 units)");

  struct Toggle {
    std::string name;
    OptimizationConfig alone;               // baseline + this one
    void (*remove)(OptimizationConfig&);    // full set - this one
  };
  const std::vector<Toggle> toggles = {
      {"BAT mapping", OptimizationConfig::OnlyBatMapping(),
       [](OptimizationConfig& c) { c.kernel_bat_mapping = false; }},
      {"VSID scatter", OptimizationConfig::OnlyTunedScatter(),
       [](OptimizationConfig& c) { c.vsid_scatter = kNaiveVsidScatter; }},
      {"fast handlers", OptimizationConfig::OnlyFastHandlers(),
       [](OptimizationConfig& c) { c.optimized_handlers = false; }},
      {"lazy flush + cutoff", OptimizationConfig::OnlyLazyFlush(20),
       [](OptimizationConfig& c) { c = OptimizationConfig::AllButLazyFlush(); }},
      {"idle reclaim", OptimizationConfig::OnlyIdleReclaim(),
       [](OptimizationConfig& c) { c.idle_zombie_reclaim = false; }},
      {"idle page zeroing", OptimizationConfig::OnlyIdleZero(IdleZeroPolicy::kUncachedWithList),
       [](OptimizationConfig& c) { c.idle_zero = IdleZeroPolicy::kOff; }},
  };

  // Cumulative build-up configs in roughly the paper's chronology (config construction is
  // cheap and sequential; only the compiles fan out).
  struct Step {
    const char* name;
    void (*mutate)(OptimizationConfig&);
  };
  const std::vector<Step> steps = {
      {"+ BAT mapping", [](OptimizationConfig& c) { c.kernel_bat_mapping = true; }},
      {"+ VSID scatter", [](OptimizationConfig& c) { c.vsid_scatter = kDefaultVsidScatter; }},
      {"+ fast handlers", [](OptimizationConfig& c) { c.optimized_handlers = true; }},
      {"+ lazy flush (cutoff 20)",
       [](OptimizationConfig& c) {
         c.lazy_context_flush = true;
         c.range_flush_cutoff = 20;
       }},
      {"+ idle reclaim", [](OptimizationConfig& c) { c.idle_zombie_reclaim = true; }},
      {"+ idle page zeroing",
       [](OptimizationConfig& c) { c.idle_zero = IdleZeroPolicy::kUncachedWithList; }},
  };

  // The full measurement lattice, one flat sweep: baseline, full set, each toggle alone,
  // each toggle removed, the cumulative build-up, and the §8 extension.
  std::vector<OptimizationConfig> configs;
  configs.push_back(OptimizationConfig::Baseline());
  configs.push_back(OptimizationConfig::AllOptimizations());
  for (const Toggle& toggle : toggles) {
    configs.push_back(toggle.alone);
  }
  for (const Toggle& toggle : toggles) {
    OptimizationConfig without = OptimizationConfig::AllOptimizations();
    toggle.remove(without);
    configs.push_back(without);
  }
  OptimizationConfig cumulative = OptimizationConfig::Baseline();
  for (const Step& step : steps) {
    step.mutate(cumulative);
    configs.push_back(cumulative);
  }
  configs.push_back(OptimizationConfig::AllPlusUncachedPageTables());

  const std::vector<double> seconds = CompileAll(configs);
  size_t at = 0;
  const double baseline = seconds[at++];
  const double full = seconds[at++];
  std::printf("baseline %.3f s, all optimizations %.3f s (%.1f%% faster)\n\n", baseline, full,
              (baseline - full) / baseline * 100.0);

  TextTable table({"optimization", "alone: gain vs baseline", "removed: loss vs full set"});
  double sum_of_alone_gains = 0;
  for (size_t i = 0; i < toggles.size(); ++i) {
    const double alone = seconds[at + i];
    const double removed = seconds[at + toggles.size() + i];
    const double alone_gain = (baseline - alone) / baseline * 100.0;
    const double removed_loss = (removed - full) / full * 100.0;
    sum_of_alone_gains += alone_gain;
    table.AddRow({toggles[i].name, TextTable::Num(alone_gain, 1) + "%",
                  TextTable::Num(removed_loss, 1) + "%"});
  }
  at += 2 * toggles.size();
  std::printf("%s\n", table.ToString().c_str());

  const double combined_gain = (baseline - full) / baseline * 100.0;
  std::printf("sum of individual gains: %.1f%%; combined gain: %.1f%%\n", sum_of_alone_gains,
              combined_gain);
  std::printf("Claim (\"the end effect was not the sum of all the optimizations\"): %s\n\n",
              std::abs(sum_of_alone_gains - combined_gain) > 1.0 ? "HOLDS" : "FAILS");

  Headline("Cumulative build-up (paper order)");
  TextTable build({"after adding", "compile (sim s)", "vs baseline"});
  build.AddRow({"(baseline)", TextTable::Num(baseline, 3), "0.0%"});
  for (const Step& step : steps) {
    const double s = seconds[at++];
    build.AddRow({step.name, TextTable::Num(s, 3),
                  TextTable::Num((baseline - s) / baseline * 100.0, 1) + "%"});
  }
  std::printf("%s\n", build.ToString().c_str());

  // §8 extension (never shipped in the paper's kernel): uncached page tables on top.
  Headline("Section 8 extension: uncached page tables on top of the full set");
  const double with_uncached_pt = seconds[at++];
  std::printf("  full set %.3f s, + uncached page tables %.3f s (%+.1f%%)\n", full,
              with_uncached_pt, (full - with_uncached_pt) / full * 100.0);
  return 0;
}

}  // namespace
}  // namespace ppcmm

int main() { return ppcmm::Main(); }
