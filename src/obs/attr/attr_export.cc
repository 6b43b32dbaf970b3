#include "src/obs/attr/attr_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

namespace ppcmm {

namespace {

std::string PathString(const std::vector<AttrCause>& path) {
  if (path.empty()) {
    return AttrCauseName(AttrCause::kInstruction);
  }
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) {
      out += ';';
    }
    out += AttrCauseName(path[i]);
  }
  return out;
}

}  // namespace

std::string AttrToFolded(const CycleLedger& ledger) {
  std::string out;
  char line[256];
  for (const CycleLedger::Cell& cell : ledger.Cells()) {
    if (cell.cycles == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line), "task%u;%s %" PRIu64 "\n", cell.task,
                  PathString(cell.path).c_str(), cell.cycles);
    out += line;
  }
  return out;
}

std::map<std::string, uint64_t> AttrCauseTotals(const CycleLedger& ledger) {
  std::map<std::string, uint64_t> totals;
  for (const CycleLedger::Cell& cell : ledger.Cells()) {
    if (cell.cycles > 0) {
      totals[PathString(cell.path)] += cell.cycles;
    }
  }
  return totals;
}

std::map<std::string, uint64_t> AttrCauseTotalsFromJson(const JsonValue& doc) {
  std::map<std::string, uint64_t> totals;
  const JsonValue* causes = doc.Find("causes");
  if (causes == nullptr || !causes->IsObject()) {
    return totals;
  }
  for (const auto& [path, value] : causes->Members()) {
    if (value.IsNumber()) {
      totals[path] = static_cast<uint64_t>(value.AsNumber());
    }
  }
  return totals;
}

JsonValue AttrToJson(const CycleLedger& ledger) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version", 1);
  doc.Set("total_cycles", ledger.TotalAttributed());

  JsonValue causes = JsonValue::Object();
  for (const auto& [path, cycles] : AttrCauseTotals(ledger)) {
    causes.Set(path, cycles);
  }
  doc.Set("causes", std::move(causes));

  std::map<uint32_t, uint64_t> by_task;
  for (const CycleLedger::Cell& cell : ledger.Cells()) {
    if (cell.cycles > 0) {
      by_task[cell.task] += cell.cycles;
    }
  }
  JsonValue tasks = JsonValue::Object();
  for (const auto& [task, cycles] : by_task) {
    tasks.Set(std::to_string(task), cycles);
  }
  doc.Set("tasks", std::move(tasks));

  JsonValue stacks = JsonValue::Array();
  for (const CycleLedger::Cell& cell : ledger.Cells()) {
    if (cell.cycles == 0) {
      continue;
    }
    JsonValue row = JsonValue::Object();
    row.Set("stack", PathString(cell.path));
    row.Set("task", cell.task);
    row.Set("cycles", cell.cycles);
    stacks.Append(std::move(row));
  }
  doc.Set("stacks", std::move(stacks));
  return doc;
}

std::string AttrDiffReport(const std::string& label_a,
                           const std::map<std::string, uint64_t>& a,
                           const std::string& label_b,
                           const std::map<std::string, uint64_t>& b) {
  struct Row {
    std::string path;
    uint64_t a = 0;
    uint64_t b = 0;
  };
  std::map<std::string, Row> merged;
  for (const auto& [path, cycles] : a) {
    merged[path].path = path;
    merged[path].a = cycles;
  }
  for (const auto& [path, cycles] : b) {
    merged[path].path = path;
    merged[path].b = cycles;
  }
  std::vector<Row> rows;
  rows.reserve(merged.size());
  for (auto& [path, row] : merged) {
    rows.push_back(row);
  }
  const auto abs_delta = [](const Row& r) {
    return r.b > r.a ? r.b - r.a : r.a - r.b;
  };
  std::sort(rows.begin(), rows.end(), [&](const Row& x, const Row& y) {
    const uint64_t dx = abs_delta(x), dy = abs_delta(y);
    if (dx != dy) return dx > dy;
    return x.path < y.path;  // deterministic tie-break
  });

  uint64_t total_a = 0, total_b = 0;
  for (const Row& r : rows) {
    total_a += r.a;
    total_b += r.b;
  }

  std::string out;
  char line[320];
  std::snprintf(line, sizeof(line), "%-44s %16s %16s %16s %9s\n", "cause",
                label_a.c_str(), label_b.c_str(), "delta", "delta%");
  out += line;
  const auto emit = [&](const char* name, uint64_t va, uint64_t vb) {
    const int64_t delta = static_cast<int64_t>(vb) - static_cast<int64_t>(va);
    if (va > 0) {
      std::snprintf(line, sizeof(line), "%-44s %16" PRIu64 " %16" PRIu64 " %+16" PRId64
                    " %+8.1f%%\n",
                    name, va, vb, delta,
                    100.0 * static_cast<double>(delta) / static_cast<double>(va));
    } else {
      std::snprintf(line, sizeof(line), "%-44s %16" PRIu64 " %16" PRIu64 " %+16" PRId64
                    " %9s\n",
                    name, va, vb, delta, "new");
    }
    out += line;
  };
  for (const Row& r : rows) {
    emit(r.path.c_str(), r.a, r.b);
  }
  emit("TOTAL", total_a, total_b);
  return out;
}

std::string FlightRecorderDump(const CycleLedger& ledger, const std::string& context,
                               size_t max_events) {
  std::string out = "flight recorder: " + context + "\n";
  const std::vector<AttrEvent> events = ledger.RecentEvents();
  if (events.empty()) {
    out += "  (no attributed events recorded; attribution was off or no scopes closed)\n";
    return out;
  }
  const size_t start = events.size() > max_events ? events.size() - max_events : 0;
  char line[192];
  std::snprintf(line, sizeof(line),
                "  last %zu of %" PRIu64 " attributed events (newest last):\n",
                events.size() - start, ledger.events_recorded());
  out += line;
  for (size_t i = start; i < events.size(); ++i) {
    const AttrEvent& e = events[i];
    std::snprintf(line, sizeof(line),
                  "  @%-12" PRIu64 " cpu=%u task=%-4u depth=%u %-22s %8" PRIu64 " cycles\n",
                  e.end_cycle, e.cpu, e.task, e.depth, AttrEventName(e), e.cycles);
    out += line;
  }
  return out;
}

void AddAttrToBenchReport(BenchReport& report, const std::string& prefix,
                          const CycleLedger& ledger) {
  report.BeginSection("cycle attribution");
  report.Add(prefix + ".total", static_cast<double>(ledger.TotalAttributed()), "cycles");
  for (const auto& [path, cycles] : AttrCauseTotals(ledger)) {
    report.Add(prefix + "." + path, static_cast<double>(cycles), "cycles");
  }
}

}  // namespace ppcmm
