// MetricsRegistry: one named, snapshot/diff-able view over everything the simulator counts.
//
// Unifies three sources under stable dotted names:
//   hw.*        every HwCounters field (X-macro generated, so never stale)
//   sys.*       derived SystemStats gauges: HTAB utilization, zombie count, evict/reload
//               ratio, TLB kernel share — the numbers the paper reports in prose
//   lat.*       per-cause latency percentiles of closed CycleScopes (lat.fault_anon.p99)
//   task.<id>.* per-task attribution: faults, COW breaks, switches
//
// Snapshots subtract (counters) or keep-the-later (gauges), and serialize to JSON and CSV
// with insertion-ordered keys, so two runs' outputs diff cleanly line by line.

#ifndef PPCMM_SRC_OBS_METRICS_H_
#define PPCMM_SRC_OBS_METRICS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.h"

namespace ppcmm {

class System;

// One point-in-time metrics capture. Counter metrics are monotonic event counts (diffable);
// gauge metrics are instantaneous values (ratios, percentiles, occupancy).
struct MetricsSnapshot {
  uint64_t cycle = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;

  // nullptr when the metric is absent.
  const uint64_t* FindCounter(const std::string& name) const;
  const double* FindGauge(const std::string& name) const;

  // Interval since `earlier`: counters subtract (a counter absent earlier keeps its full
  // value — e.g. a task born inside the interval); gauges keep this snapshot's value.
  MetricsSnapshot Diff(const MetricsSnapshot& earlier) const;

  // {"cycle":N,"counters":{name:value,...},"gauges":{name:value,...}}
  JsonValue ToJson() const;
};

// Builds MetricsSnapshots from a live System.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(System& system) : system_(system) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Captures everything: hw.* and task.* counters, sys.* and lat.* gauges. The capture
  // reads simulator state but never advances the simulated clock.
  MetricsSnapshot Snapshot() const;

 private:
  System& system_;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_OBS_METRICS_H_
