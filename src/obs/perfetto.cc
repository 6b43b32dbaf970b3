#include "src/obs/perfetto.h"

#include <algorithm>
#include <map>
#include <set>

namespace ppcmm {

namespace {

double TsMicros(uint64_t cycle, double clock_mhz) {
  return static_cast<double>(cycle) / (clock_mhz > 0 ? clock_mhz : 1.0);
}

JsonValue MetadataEvent(const char* name, uint32_t pid, uint32_t tid,
                        const std::string& value) {
  JsonValue event = JsonValue::Object();
  event.Set("ph", "M");
  event.Set("name", name);
  event.Set("pid", pid);
  event.Set("tid", tid);
  JsonValue args = JsonValue::Object();
  args.Set("name", value);
  event.Set("args", std::move(args));
  return event;
}

uint64_t StartCycle(const AttrEvent& e) { return e.end_cycle - e.cycles; }

}  // namespace

JsonValue PerfettoTraceJson(const std::vector<AttrEvent>& events,
                            const PerfettoExportOptions& options) {
  JsonValue out = JsonValue::Array();
  out.Append(MetadataEvent("process_name", options.pid, 0, "ppcmm"));
  std::set<uint32_t> cpus;
  for (const AttrEvent& e : events) {
    cpus.insert(e.cpu);
  }
  for (const uint32_t cpu : cpus) {
    out.Append(MetadataEvent("thread_name", options.pid, cpu, "cpu " + std::to_string(cpu)));
  }
  const std::map<uint32_t, std::string> names(options.task_names.begin(),
                                              options.task_names.end());

  // The ring is in close order; a viewer wants start order, with an enclosing scope
  // (lower depth) ahead of a child that starts on the same cycle.
  std::vector<AttrEvent> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(), [](const AttrEvent& a, const AttrEvent& b) {
    const uint64_t sa = StartCycle(a);
    const uint64_t sb = StartCycle(b);
    return sa != sb ? sa < sb : a.depth < b.depth;
  });
  for (const AttrEvent& e : sorted) {
    const bool slice = e.kind == AttrEventKind::kScope;
    JsonValue event = JsonValue::Object();
    event.Set("name", AttrEventName(e));
    event.Set("cat", slice ? "attr" : "instant");
    event.Set("ph", slice ? "X" : "i");
    event.Set("ts", TsMicros(StartCycle(e), options.clock_mhz));
    if (slice) {
      event.Set("dur", TsMicros(e.cycles, options.clock_mhz));
    } else {
      event.Set("s", "t");  // thread-scoped instant
    }
    event.Set("pid", options.pid);
    event.Set("tid", e.cpu);
    JsonValue args = JsonValue::Object();
    args.Set("task", e.task);
    const auto named = names.find(e.task);
    args.Set("task_name", named != names.end() ? named->second
                          : e.task == 0        ? std::string("kernel")
                                               : "task " + std::to_string(e.task));
    if (slice) {
      args.Set("depth", e.depth);
    }
    event.Set("args", std::move(args));
    out.Append(std::move(event));
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("traceEvents", std::move(out));
  doc.Set("displayTimeUnit", "ms");
  return doc;
}

std::string PerfettoTraceString(const CycleLedger& ledger,
                                const PerfettoExportOptions& options) {
  return PerfettoTraceJson(ledger.RecentEvents(), options).Serialize();
}

}  // namespace ppcmm
