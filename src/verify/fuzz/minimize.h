// The shrinking minimizer: turns a diverging fuzz stream into a minimal replay.
//
// Because skipped ops are free (see op_stream.h — every subsequence of a valid stream is
// valid), minimization is pure deletion: truncate to the failing op, then delta-debug —
// delete halves, then quarters, ... then single ops, re-running the one failing
// (preset, strategy) combination after each candidate deletion and keeping any
// deletion that still diverges. Loops to a fixpoint, so the result is 1-minimal: removing
// any single remaining op makes the divergence disappear.

#ifndef PPCMM_SRC_VERIFY_FUZZ_MINIMIZE_H_
#define PPCMM_SRC_VERIFY_FUZZ_MINIMIZE_H_

#include <cstdint>

#include "src/verify/fuzz/differential.h"

namespace ppcmm {

struct MinimizeOptions {
  // The failing combination, typically MatrixResult::failing_options. check_period is
  // overridden per probe run (tight checks on small candidates, sparse on large ones).
  DifferentialOptions run;
  // Safety valve on probe executions; minimization stops shrinking when exhausted.
  uint32_t max_probe_runs = 4000;
};

struct MinimizeResult {
  FuzzStream minimized;       // 1-minimal diverging stream (original seed preserved)
  uint32_t probe_runs = 0;    // differential runs spent shrinking
  DifferentialResult failure;  // the minimized stream's divergence, at check_period=1
};

// `stream` must diverge under `options.run`; PPCMM_CHECKs if it does not.
MinimizeResult MinimizeStream(const FuzzStream& stream, const MinimizeOptions& options);

}  // namespace ppcmm

#endif  // PPCMM_SRC_VERIFY_FUZZ_MINIMIZE_H_
