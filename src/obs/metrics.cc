#include "src/obs/metrics.h"

#include "src/core/stats.h"
#include "src/core/system.h"

namespace ppcmm {

const uint64_t* MetricsSnapshot::FindCounter(const std::string& name) const {
  for (const auto& [k, v] : counters) {
    if (k == name) {
      return &v;
    }
  }
  return nullptr;
}

const double* MetricsSnapshot::FindGauge(const std::string& name) const {
  for (const auto& [k, v] : gauges) {
    if (k == name) {
      return &v;
    }
  }
  return nullptr;
}

MetricsSnapshot MetricsSnapshot::Diff(const MetricsSnapshot& earlier) const {
  MetricsSnapshot d;
  d.cycle = cycle - earlier.cycle;
  d.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) {
    const uint64_t* base = earlier.FindCounter(name);
    d.counters.emplace_back(name, base != nullptr ? value - *base : value);
  }
  d.gauges = gauges;
  return d;
}

JsonValue MetricsSnapshot::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("cycle", cycle);
  JsonValue counter_obj = JsonValue::Object();
  for (const auto& [name, value] : counters) {
    counter_obj.Set(name, value);
  }
  out.Set("counters", std::move(counter_obj));
  JsonValue gauge_obj = JsonValue::Object();
  for (const auto& [name, value] : gauges) {
    gauge_obj.Set(name, value);
  }
  out.Set("gauges", std::move(gauge_obj));
  return out;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  Machine& machine = system_.machine();
  const HwCounters& hw = machine.counters();
  snap.cycle = hw.cycles;

  hw.ForEachField([&](const char* name, uint64_t value, bool is_gauge) {
    const std::string key = std::string("hw.") + name;
    if (is_gauge) {
      snap.gauges.emplace_back(key, static_cast<double>(value));
    } else {
      snap.counters.emplace_back(key, value);
    }
  });

  system_.kernel().ForEachTask([&](Task& task) {
    const std::string prefix = "task." + std::to_string(task.id.value) + ".";
    snap.counters.emplace_back(prefix + "page_faults", task.obs.page_faults);
    snap.counters.emplace_back(prefix + "cow_faults", task.obs.cow_faults);
    snap.counters.emplace_back(prefix + "switches_in", task.obs.switches_in);
  });

  // Derived system gauges, computed over the whole run so far.
  const SystemStats stats = ComputeStats(system_, hw);
  snap.gauges.emplace_back("sys.htab_utilization", stats.htab_utilization);
  snap.gauges.emplace_back("sys.htab_valid", stats.htab_valid);
  snap.gauges.emplace_back("sys.htab_live", stats.htab_live);
  snap.gauges.emplace_back("sys.htab_zombies",
                           static_cast<double>(stats.htab_valid - stats.htab_live));
  snap.gauges.emplace_back("sys.htab_hit_rate", stats.htab_hit_rate);
  snap.gauges.emplace_back("sys.evict_to_reload_ratio", stats.evict_to_reload_ratio);
  snap.gauges.emplace_back("sys.dtlb_miss_rate", stats.dtlb_miss_rate);
  snap.gauges.emplace_back("sys.itlb_miss_rate", stats.itlb_miss_rate);
  snap.gauges.emplace_back("sys.tlb_kernel_share", stats.tlb_kernel_share);

  // Latency distributions, one family per scoped cause (all zero while the ledger is off).
  for (uint8_t i = 1; i < static_cast<uint8_t>(AttrCause::kNumCauses); ++i) {
    const AttrCause cause = static_cast<AttrCause>(i);
    const LatencyHistogram& h = machine.attr().Latency(cause);
    const std::string prefix = std::string("lat.") + AttrCauseName(cause) + ".";
    snap.counters.emplace_back(prefix + "count", h.TotalCount());
    snap.gauges.emplace_back(prefix + "p50", static_cast<double>(h.Percentile(0.50)));
    snap.gauges.emplace_back(prefix + "p95", static_cast<double>(h.Percentile(0.95)));
    snap.gauges.emplace_back(prefix + "p99", static_cast<double>(h.Percentile(0.99)));
    snap.gauges.emplace_back(prefix + "max", static_cast<double>(h.Max()));
    snap.gauges.emplace_back(prefix + "mean", h.Mean());
  }
  return snap;
}

}  // namespace ppcmm
