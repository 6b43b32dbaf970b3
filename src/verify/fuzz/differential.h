// The lockstep differential runner: executes a FuzzStream against a real System and the
// ReferenceMmu oracle simultaneously, asserting after every op that the optimized kernel is
// architecturally indistinguishable from the obviously-correct model — same faults, same
// returned addresses, same translated frames, same memory content — and periodically
// sweeping the whole machine (every PTE, every cached translation, §7 zombie
// unreachability, the C-bit contract) against the oracle.
//
// A stream is run across the full configuration matrix: every optimization preset × every
// reload strategy. Divergences throw inside and come back as a
// DifferentialResult with a self-contained report (seed, combo, op index, serialized op,
// trailing op trace) ready for the minimizer.

#ifndef PPCMM_SRC_VERIFY_FUZZ_DIFFERENTIAL_H_
#define PPCMM_SRC_VERIFY_FUZZ_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kernel/opt_config.h"
#include "src/mmu/mmu.h"
#include "src/verify/fuzz/op_stream.h"

namespace ppcmm {

// The named optimization presets the fuzzer sweeps — the same thirteen the property tests
// use, so a preset name in a fuzz report means the same thing everywhere.
struct FuzzPreset {
  std::string name;
  OptimizationConfig config;
};
std::vector<FuzzPreset> FuzzPresets();
// Returns the preset with that name (crashes on an unknown one — CLI input is validated
// against FuzzPresets() first).
FuzzPreset FuzzPresetByName(const std::string& name);

// One run = one (config, strategy) combination.
struct DifferentialOptions {
  OptimizationConfig config;
  std::string config_name;  // for reports only
  ReloadStrategy strategy = ReloadStrategy::kHardwareHtabWalk;
  // Simulated CPUs for both the real System and the oracle. kCpuSwitch ops in the stream
  // are skipped at ncpus=1, so any stream runs at any width.
  uint32_t ncpus = 1;
  // Run the full machine sweep every N executed ops (0 = only after the last op). Per-op
  // assertions (faults, frames, tokens) always run regardless.
  uint32_t check_period = 1024;
  // Test-only sabotage: make EagerFlushPage skip its tlbie, leaving zombie TLB entries the
  // cross-check must catch. Used to prove the fuzzer + minimizer actually detect bugs.
  bool break_tlb_invalidate = false;
  // Test-only sabotage: shootdown IPIs land but invalidate nothing, leaving stale entries
  // only in *remote* TLBs. Only reachable at ncpus > 1 after a task migrates CPUs, so a
  // minimized repro must keep its cpu_switch ops — the SMP analog of break_tlb_invalidate.
  bool break_shootdown = false;
};

struct DifferentialResult {
  bool diverged = false;
  uint32_t ops_executed = 0;   // non-skipped ops completed before the divergence (or all)
  uint32_t failed_op_index = 0;  // index into stream.ops of the op being run at divergence
  std::string report;          // human-readable failure description (empty when clean)
  OpCoverage coverage;
};

DifferentialResult RunDifferential(const FuzzStream& stream,
                                   const DifferentialOptions& options);

// The full matrix for one preset: {software-direct, software-htab, hardware-walk} = 3 runs.
// Stops at the first divergence.
struct MatrixResult {
  bool diverged = false;
  uint32_t runs = 0;  // runs completed or attempted
  DifferentialResult first_failure;
  DifferentialOptions failing_options;  // the combo to hand to the minimizer
  OpCoverage coverage;                  // merged over all runs
};

MatrixResult RunMatrix(const FuzzStream& stream, const OptimizationConfig& config,
                       const std::string& config_name, uint32_t check_period,
                       bool break_tlb_invalidate = false, uint32_t ncpus = 1);

}  // namespace ppcmm

#endif  // PPCMM_SRC_VERIFY_FUZZ_DIFFERENTIAL_H_
