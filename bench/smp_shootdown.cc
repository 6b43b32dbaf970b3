// Shootdown storm — eager per-page shootdown vs the §7 lazy VSID bump, at 1/2/4 CPUs.
//
// The paper pitches lazy whole-context flushing as a uniprocessor mmap-latency win; this
// bench measures the claim's SMP corollary. Every CPU runs a resident task and the storm
// round-robins mmap/touch/munmap work onto the least-advanced CPU (by Machine::CpuCycles,
// so the interleave is fair and fully deterministic). Under eager flushing each munmap
// must interrupt every other CPU — (ncpus-1) IPIs per unmap, each charging send and
// receive cycles on top of the remote invalidate. Under the lazy VSID bump the retired
// VSIDs are unreachable on every CPU, remote zombie entries are harmless, and the same
// storm completes with zero shootdown rounds: the optimization scales with CPU count
// instead of being eroded by it.
//
// PPCMM_QUICK=1 shrinks the storm for smoke runs (bench/run_all.sh --quick and CI).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/rng.h"
#include "src/workloads/report.h"

namespace ppcmm {
namespace {

bool QuickMode() {
  const char* env = std::getenv("PPCMM_QUICK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// Both policies start from the paper's final kernel so the flush strategy is the only
// variable; idle reclaim stays off so the idle loop cannot nibble at the HTAB mid-storm
// (the eager side, OptimizationConfig::AllButLazyFlush(), has none to begin with).
OptimizationConfig LazyVsidBump() {
  // AllOptimizations keeps the paper's tuned 20-page cutoff; the storm's regions sit above
  // it, so every munmap becomes a VSID bump. (Below the cutoff lazy flushing loses — the
  // whole-context bump forces the task's resident pages to re-translate — which is the
  // whole reason §7 made the cutoff tunable.)
  OptimizationConfig config = OptimizationConfig::AllOptimizations();
  config.idle_zombie_reclaim = false;
  return config;
}

struct StormResult {
  uint64_t rounds = 0;
  HwCounters delta;            // counters over the storm only (setup excluded)
  uint64_t unmap_cycles = 0;   // cycles spent inside Munmap alone — the lat_mmap headline
  uint64_t cpu_skew = 0;       // max - min per-CPU local clock after the storm
};

StormResult RunStorm(uint32_t ncpus, const OptimizationConfig& opts, uint64_t rounds) {
  MachineConfig machine = MachineConfig::Ppc604(185);
  machine.ncpus = ncpus;
  System sys(machine, opts);
  Kernel& kernel = sys.kernel();
  for (uint32_t cpu = 0; cpu < ncpus; ++cpu) {
    kernel.SwitchCpu(cpu);
    const TaskId id = kernel.CreateTask("storm");
    kernel.Exec(id, ExecImage{.text_pages = 8, .data_pages = 32, .stack_pages = 4});
    kernel.SwitchTo(id);
  }

  Rng rng(0x51107 + ncpus);
  StormResult result;
  const HwCounters before = sys.counters();
  for (uint64_t round = 0; round < rounds; ++round) {
    // Fair interleave: the spotlight always moves to the CPU with the least simulated
    // progress, so no CPU starves and the schedule is a pure function of the cycle model.
    uint32_t next = 0;
    for (uint32_t cpu = 1; cpu < ncpus; ++cpu) {
      if (sys.machine().CpuCycles(cpu) < sys.machine().CpuCycles(next)) {
        next = cpu;
      }
    }
    kernel.SwitchCpu(next);
    // lat_mmap-style regions, all past the 20-page cutoff so both policies flush a range
    // big enough to matter: eager pays per-page HTAB searches plus the shootdown round,
    // lazy pays one VSID bump regardless of size.
    const uint32_t pages = 24 + static_cast<uint32_t>(rng.NextBelow(8));
    const uint32_t start = kernel.Mmap(pages);
    for (uint32_t p = 0; p < pages; ++p) {
      kernel.UserTouch(EffAddr::FromPage(start + p), AccessKind::kStore);
    }
    // The unmap is where the policies diverge: per-page HTAB searches plus an IPI round
    // versus one VSID bump. The global cycle counter also books the remote IPI handlers,
    // so the shootdown's cross-CPU cost lands in this window too.
    const uint64_t unmap_start = sys.counters().cycles;
    kernel.Munmap(start, pages);
    result.unmap_cycles += sys.counters().cycles - unmap_start;
  }

  result.rounds = rounds;
  result.delta = sys.counters().Diff(before);
  uint64_t lo = sys.machine().CpuCycles(0), hi = lo;
  for (uint32_t cpu = 1; cpu < ncpus; ++cpu) {
    const uint64_t c = sys.machine().CpuCycles(cpu);
    lo = c < lo ? c : lo;
    hi = c > hi ? c : hi;
  }
  result.cpu_skew = hi - lo;
  return result;
}

int Main() {
  const bool quick = QuickMode();
  const uint64_t rounds = quick ? 200 : 2000;

  Headline("SMP shootdown storm: eager per-page shootdown vs lazy VSID bump");
  BenchReport::Global().SetMeta("machine", "604-185");
  BenchReport::Global().SetMeta("workload",
                                "mmap/touch/munmap storm, least-advanced-CPU interleave, " +
                                    std::to_string(rounds) + " rounds");

  struct Policy {
    const char* name;
    const char* key;
    OptimizationConfig opts;
  };
  const std::vector<Policy> policies = {
      {"eager shootdown", "eager", OptimizationConfig::AllButLazyFlush()},
      {"lazy VSID bump", "lazy", LazyVsidBump()},
  };

  TextTable table({"policy", "ncpus", "unmap cyc/round", "cycles/round", "shootdown reqs",
                   "IPIs", "ctx flushes", "cpu skew"});
  std::vector<double> eager_unmap, lazy_unmap;  // indexed by width
  for (const Policy& policy : policies) {
    for (const uint32_t ncpus : {1u, 2u, 4u}) {
      const StormResult r = RunStorm(ncpus, policy.opts, rounds);
      const double unmap = static_cast<double>(r.unmap_cycles) / static_cast<double>(r.rounds);
      (policy.key[0] == 'e' ? eager_unmap : lazy_unmap).push_back(unmap);
      table.AddRow({policy.name, std::to_string(ncpus),
                    TextTable::Count(r.unmap_cycles / r.rounds),
                    TextTable::Count(r.delta.cycles / r.rounds),
                    TextTable::Count(r.delta.tlb_shootdown_requests),
                    TextTable::Count(r.delta.tlb_shootdown_ipis),
                    TextTable::Count(r.delta.tlb_context_flushes),
                    TextTable::Count(r.cpu_skew)});
      const std::string prefix = std::string(policy.key) + "_" + std::to_string(ncpus) + "cpu";
      BenchReport::Global().Add(prefix + ".unmap_cycles_per_round", unmap, "cycles");
      BenchReport::Global().Add(
          prefix + ".cycles_per_round",
          static_cast<double>(r.delta.cycles) / static_cast<double>(r.rounds), "cycles");
      BenchReport::Global().Add(prefix + ".cpu_clock_skew", static_cast<double>(r.cpu_skew),
                                "cycles");
      BenchReport::Global().AddCounters(prefix, r.delta);
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  Headline("Unmap latency: the shootdown tax and what the lazy bump buys back");
  for (size_t i = 0; i < 3; ++i) {
    const uint32_t ncpus = 1u << i;
    const double tax = eager_unmap[i] / eager_unmap[0];
    const double win = eager_unmap[i] / lazy_unmap[i];
    std::printf("  %u CPU(s): eager %.0f unmap cyc/round (%.2fx of 1-CPU), lazy %.0f — "
                "%.1fx faster\n",
                ncpus, eager_unmap[i], tax, lazy_unmap[i], win);
    const std::string prefix = std::to_string(ncpus) + "cpu";
    BenchReport::Global().Add(prefix + ".eager_unmap_scaling_tax", tax, "x");
    BenchReport::Global().Add(prefix + ".lazy_unmap_speedup", win, "x");
  }
  return 0;
}

}  // namespace
}  // namespace ppcmm

int main() { return ppcmm::Main(); }
