// The four closed-loop workloads. Each is run in rounds: a round builds fresh Systems,
// sets them up, runs a fixed, seed-determined sequence of operations, and tears them down.
// The same seed gives the same round every time, so every round of a run must end with
// the same simulated counters; the run loop in main.cc checks that.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/tracer.h"
#include "src/sim/attr.h"
#include "src/sim/hw_counters.h"

namespace perfbench {

struct Params {
  uint64_t seed = 1;
  bool tiny = false;  // smoke-test sizes
};

struct RoundOptions {
  Tracer* tracer = nullptr;   // null: untraced
  bool ledger = false;        // enable the CycleLedger over the op window
  bool check = false;         // run the cross-checks against the library's own workloads
};

// What one round measured. Simulated fields are exact; host fields are seconds.
struct RoundStats {
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::string error;  // first failure, empty when the round passed every check

  double op_s = 0;     // host time of the op loop (setup and teardown excluded)
  double setup_s = 0;  // host time of System construction plus pre-op set-up
  std::vector<double> ctor_s;  // per System
  std::vector<double> dtor_s;

  ppcmm::HwCounters window;                   // counters over the op windows, summed
  std::vector<ppcmm::HwCounters> end_states;  // whole-System counters, one per System
  uint64_t fast_hits = 0;
  uint64_t fast_misses = 0;
  uint64_t span_accesses = 0;

  uint64_t attributed = 0;  // CycleLedger::TotalAttributed over the op windows
  std::array<uint64_t, static_cast<size_t>(ppcmm::AttrCause::kNumCauses)> attr{};

  // Sweep only: thread count, summed op busy time and per-config start delays.
  unsigned threads = 0;
  double busy_s = 0;
  std::vector<double> wait_s;

  uint64_t Accesses() const {
    return window.itlb_accesses + window.dtlb_accesses + window.bat_translations;
  }
};

using RoundFn = RoundStats (*)(const Params&, const RoundOptions&);

struct WorkloadDef {
  const char* name;
  RoundFn round;
  bool parallel;  // the round spreads its own work over Clients() threads
};

RoundStats KcompileRound(const Params& params, const RoundOptions& options);
RoundStats TranslateRound(const Params& params, const RoundOptions& options);
RoundStats MmapChurnRound(const Params& params, const RoundOptions& options);
RoundStats ConfigSweepRound(const Params& params, const RoundOptions& options);

inline constexpr std::array<WorkloadDef, 4> kWorkloads = {{
    {"kcompile", KcompileRound, false},
    {"translate", TranslateRound, false},
    {"mmap_churn", MmapChurnRound, false},
    {"config_sweep", ConfigSweepRound, true},
}};

// How many closed-loop clients drive each workload at once, each with its own Systems on
// its own thread (for config_sweep: the SweepRunner's thread count). Fixed here from the
// host's CPU count, capped at 4, and never read from the environment. Aggregate throughput
// over all the host's CPUs varies far less on a shared machine than one CPU's speed does.
unsigned Clients();

// True when both lists hold the same counters, field for field, in the same order.
bool SameCounterSets(const std::vector<ppcmm::HwCounters>& a,
                     const std::vector<ppcmm::HwCounters>& b);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
