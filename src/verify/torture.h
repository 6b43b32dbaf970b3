// Deterministic MMU torture harness.
//
// Drives a full System through a seed-replayable stream of random kernel operations (fork,
// exec, mmap, munmap, touches, stores, context switches, idle ticks) with the coherence
// auditor running continuously and optional fault injection underneath. Every decision comes
// from one SplitMix64 stream, so a failing (seed, options) pair replays the identical run —
// the failure report carries everything needed to reproduce it.

#ifndef PPCMM_SRC_VERIFY_TORTURE_H_
#define PPCMM_SRC_VERIFY_TORTURE_H_

#include <cstdint>
#include <string>

#include "src/mmu/mmu.h"
#include "src/verify/coherence_auditor.h"

namespace ppcmm {

const char* ReloadStrategyName(ReloadStrategy strategy);

// Knobs of one torture run. Everything is deterministic in (seed, the rest of this struct).
struct TortureOptions {
  uint64_t seed = 1;
  uint32_t ops = 10000;
  uint32_t audit_period = 64;  // full audit every N ops (plus once at the end); 0 = end only
  uint32_t max_tasks = 6;
  // Simulated CPUs. >1 mixes CPU hops into the op stream (from the same rng stream, drawn
  // only when ncpus > 1, so ncpus=1 runs replay the exact uniprocessor op sequence) and the
  // failure report gains the faulting CPU and a per-CPU TLB snapshot.
  uint32_t ncpus = 1;
  ReloadStrategy strategy = ReloadStrategy::kHardwareHtabWalk;
  // Draw the OptimizationConfig from the seed (each run exercises a different corner of the
  // policy space); when false, AllOptimizations() is used.
  bool randomize_config = true;
  // Fault-injection rates, 1-in-N per poll site (0 = class disabled).
  uint32_t page_alloc_exhaustion_one_in = 0;
  uint32_t htab_eviction_storm_one_in = 0;
  uint32_t spurious_tlb_flush_one_in = 0;
  uint32_t vsid_wrap_one_in = 0;
  uint32_t zombie_flood_one_in = 0;
  // Test-only sabotage: skip the tlbie in eager per-page flushes (forces the eager flush
  // path by disabling lazy flushing) so the auditor must catch the stale TLB entries.
  bool break_tlb_invalidate = false;
  // Simulated RAM; 0 = the machine profile's default (32 MB). Small values (e.g. 8 MB)
  // drive genuine allocator exhaustion without fault injection.
  uint64_t ram_bytes = 0;
  // Export the machine's trace ring and metrics. On failure a metrics snapshot is
  // appended to failure_report (the ring tail is always there, as the flight recorder); on
  // any exit the exported documents land in trace_json / metrics_json (for --trace-out and
  // post-mortem tooling).
  bool capture_trace = true;
};

// What a run did. `failed` is set on any CheckFailure (auditor violation or internal check);
// genuine+injected out-of-memory conditions are recovered from and counted, never failures.
struct TortureResult {
  bool failed = false;
  uint32_t ops_executed = 0;
  uint32_t oom_events = 0;
  uint64_t fault_fires = 0;
  AuditStats audit_stats;
  std::string config_desc;
  std::string failure_report;  // empty unless failed: seed, config, op index, op-trace tail
  // Perfetto trace-event JSON of the retained trace ring and a metrics-snapshot JSON,
  // both empty when capture_trace is off.
  std::string trace_json;
  std::string metrics_json;
};

// Runs one torture run to completion (or first failure). Never throws.
TortureResult RunTorture(const TortureOptions& options);

}  // namespace ppcmm

#endif  // PPCMM_SRC_VERIFY_TORTURE_H_
