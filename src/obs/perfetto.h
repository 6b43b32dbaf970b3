// Chrome/Perfetto trace-event exporter for the cycle ledger's trace ring.
//
// Emits the JSON object format ({"traceEvents":[...]}) that https://ui.perfetto.dev and
// chrome://tracing open directly. Each closed CycleScope becomes a complete ("X") slice on
// the track of the CPU it closed on, spanning the simulated cycles it covered, so nested
// scopes render as nested slices; the two unscoped events (fault_injected, oom_rollback)
// become thread-scoped instants. Every event carries its task in args. Timestamps are
// simulated microseconds (cycles / clock MHz).

#ifndef PPCMM_SRC_OBS_PERFETTO_H_
#define PPCMM_SRC_OBS_PERFETTO_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.h"
#include "src/sim/attr.h"

namespace ppcmm {

struct PerfettoExportOptions {
  // Converts cycles to trace microseconds. Must be > 0.
  double clock_mhz = 100.0;
  // Optional task-id → display-name mapping, rendered as each event's args.task_name.
  // Unnamed tasks default to "task N" (task 0, kernel bring-up / no task, to "kernel").
  std::vector<std::pair<uint32_t, std::string>> task_names;
  // The pid every event is filed under (one simulated machine = one process).
  uint32_t pid = 1;
};

// Builds the trace-event document from ring events (oldest first, as RecentEvents returns
// them). Slices are emitted in start order, parents before the children they enclose.
JsonValue PerfettoTraceJson(const std::vector<AttrEvent>& events,
                            const PerfettoExportOptions& options = PerfettoExportOptions{});

// Convenience: export a ledger's trace ring and serialize.
std::string PerfettoTraceString(const CycleLedger& ledger,
                                const PerfettoExportOptions& options = PerfettoExportOptions{});

}  // namespace ppcmm

#endif  // PPCMM_SRC_OBS_PERFETTO_H_
