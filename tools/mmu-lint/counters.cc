// CNT-* checks: the HwCounters X-macro list is the single source of truth for counter
// names; everything that spells a dotted metric name (string literals in code, docs in
// markdown) must agree with it, and MetricsRegistry must publish through ForEachField so
// it cannot drift.

#include <set>
#include <string>
#include <vector>

#include "tools/mmu-lint/rules.h"

namespace mmulint {
namespace {

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
}

// Field names from one backslash-continued X-macro definition in hw_counters.h.
std::set<std::string> ParseXMacro(const SourceFile& sf, const std::string& macro) {
  std::set<std::string> fields;
  const size_t def = sf.code.find("#define " + macro);
  if (def == std::string::npos) {
    return fields;
  }
  // The definition spans every backslash-continued line after the #define.
  size_t end = def;
  for (;;) {
    size_t eol = sf.code.find('\n', end);
    if (eol == std::string::npos) {
      end = sf.code.size();
      break;
    }
    size_t last = eol;
    while (last > end && (sf.code[last - 1] == ' ' || sf.code[last - 1] == '\t' ||
                          sf.code[last - 1] == '\r')) {
      --last;
    }
    if (last == end || sf.code[last - 1] != '\\') {
      end = eol;
      break;
    }
    end = eol + 1;
  }
  const std::string body = sf.code.substr(def, end - def);
  for (size_t pos : FindIdentifier(body, "X")) {
    const size_t open = pos + 1;
    if (open >= body.size() || body[open] != '(') {
      continue;
    }
    size_t p = body.find_first_not_of(" \t\n", open + 1);
    size_t q = p;
    while (q != std::string::npos && q < body.size() && IsIdentChar(body[q])) {
      ++q;
    }
    if (p != std::string::npos && q > p) {
      fields.insert(body.substr(p, q - p));
    }
  }
  return fields;
}

// String-literal contents of `sf` with their byte offsets: the spans that are blanked in
// `code` but not in `code_with_strings` (comments are blanked in both, so only literals
// differ between the views).
std::vector<std::pair<std::string, size_t>> Literals(const SourceFile& sf) {
  std::vector<std::pair<std::string, size_t>> out;
  const std::string& a = sf.code;
  const std::string& b = sf.code_with_strings;
  size_t i = 0;
  while (i < a.size()) {
    if (a[i] == ' ' && b[i] != ' ' && b[i] != '\n') {
      const size_t start = i;
      std::string text;
      // Same condition as the entry test, so this consumes at least one byte. Spaces and
      // escaped quotes split a literal into pieces; dotted metric names contain neither.
      while (i < a.size() && a[i] == ' ' && b[i] != ' ' && b[i] != '\n') {
        text += b[i];
        ++i;
      }
      out.emplace_back(text, start);
    } else {
      ++i;
    }
  }
  return out;
}

struct NameSets {
  std::set<std::string> hw;      // counters + gauges from the X-macros
  std::set<std::string> causes;  // cause names from AttrCauseName in attr.cc
};

// Cause names from the AttrCauseName definition: every identifier-shaped literal in its
// body except the "invalid" fallback.
std::set<std::string> ParseCauseNames(const SourceFile& sf) {
  std::set<std::string> names;
  for (const size_t pos : FindIdentifier(sf.code, "AttrCauseName")) {
    const size_t open = sf.code.find('{', pos);
    const size_t semi = sf.code.find(';', pos);
    if (open == std::string::npos || semi < open) {
      continue;  // a declaration or a call, not the definition
    }
    const size_t end = MatchForward(sf.code, open, '{', '}');
    for (const auto& [text, at] : Literals(sf)) {
      bool ident_shaped = !text.empty();
      for (char c : text) {
        ident_shaped = ident_shaped && IsIdentChar(c);
      }
      if (at > open && at < end && ident_shaped && text != "invalid") {
        names.insert(text);
      }
    }
    break;
  }
  return names;
}

// One dotted reference found in text: prefix family + the identifiers after it.
struct Reference {
  size_t pos;          // offset of the family prefix in the scanned text
  std::string first;   // identifier after "hw." / "sys." / "lat."
  std::string second;  // identifier after a second dot ("" if none)
};

std::vector<Reference> FindReferences(const std::string& text, const std::string& family) {
  std::vector<Reference> refs;
  size_t pos = 0;
  while ((pos = text.find(family, pos)) != std::string::npos) {
    const size_t start = pos;
    pos += family.size();
    if (start > 0 && (IsIdentChar(text[start - 1]) || text[start - 1] == '.')) {
      continue;  // tail of a longer name, e.g. "task.obs." or "xhw."
    }
    size_t p = start + family.size();
    size_t q = p;
    while (q < text.size() && IsIdentChar(text[q])) {
      ++q;
    }
    if (q == p) {
      continue;  // bare "hw." prefix used for concatenation — not a full name
    }
    if (q < text.size() && text[q] == '(') {
      continue;  // a call like sys.kernel() in prose, not a metric name
    }
    Reference ref{start, text.substr(p, q - p), ""};
    if (q + 1 < text.size() && text[q] == '.' && IsIdentChar(text[q + 1])) {
      size_t r = q + 1;
      while (r < text.size() && IsIdentChar(text[r])) {
        ++r;
      }
      if (!(r < text.size() && text[r] == '(')) {
        ref.second = text.substr(q + 1, r - q - 1);
      }
    }
    refs.push_back(ref);
  }
  return refs;
}

void CheckReferencesIn(const LintConfig& config, const SourceFile& sf, const std::string& text,
                       size_t base_offset, const NameSets& names,
                       std::vector<Diagnostic>* out) {
  static const std::set<std::string> kLatStats = {"count", "p50", "p95", "p99", "max", "mean"};
  if (RuleEnabled(config, "CNT-REF-030")) {
    for (const Reference& ref : FindReferences(text, "hw.")) {
      if (names.hw.count(ref.first) == 0) {
        Emit(sf, LineOf(sf.raw, base_offset + ref.pos), "CNT-REF-030",
             "hw." + ref.first + " is not a HwCounters field",
             "add it to PPCMM_HW_COUNTER_FIELDS/PPCMM_HW_GAUGE_FIELDS in src/sim/hw_counters.h "
             "or fix the reference",
             out);
      }
    }
  }
  if (RuleEnabled(config, "CNT-SYS-034")) {
    for (const Reference& ref : FindReferences(text, "sys.")) {
      bool known = false;
      for (const std::string& name : SysGaugeNames()) {
        known = known || name == ref.first;
      }
      if (!known) {
        Emit(sf, LineOf(sf.raw, base_offset + ref.pos), "CNT-SYS-034",
             "sys." + ref.first + " is not a published system gauge",
             "add it to SysGaugeNames() in tools/mmu-lint/rules.cc and to "
             "MetricsRegistry::Snapshot, or fix the reference",
             out);
      }
    }
  }
  if (RuleEnabled(config, "CNT-LAT-032")) {
    for (const Reference& ref : FindReferences(text, "lat.")) {
      const std::string full =
          "lat." + ref.first + (ref.second.empty() ? "" : "." + ref.second);
      const bool known = names.causes.count(ref.first) != 0 &&
                         (ref.second.empty() || kLatStats.count(ref.second) != 0);
      if (!known) {
        Emit(sf, LineOf(sf.raw, base_offset + ref.pos), "CNT-LAT-032",
             full + " names no latency metric (causes come from AttrCauseName in "
             "src/sim/attr.cc; stats are count/p50/p95/p99/max/mean)",
             "fix the cause or stat name, or add the cause to AttrCause and AttrCauseName",
             out);
      }
    }
  }
}

}  // namespace

void CheckCounters(const LintConfig& config, const Tree& tree, std::vector<Diagnostic>* out) {
  const CounterPaths paths;
  NameSets names;

  auto hw_it = tree.files.find(paths.hw_counters_h);
  if (hw_it == tree.files.end()) {
    if (RuleEnabled(config, "CNT-XMACRO-033")) {
      out->push_back({paths.hw_counters_h, 1, "CNT-XMACRO-033",
                      "src/sim/hw_counters.h not found: the counter name source of truth is "
                      "gone, so no hw./sys./lat. reference can be validated",
                      "restore the X-macro field lists (or update CounterPaths in "
                      "tools/mmu-lint/rules.h if the file moved)"});
    }
    return;
  }
  const std::set<std::string> counters = ParseXMacro(hw_it->second, "PPCMM_HW_COUNTER_FIELDS");
  const std::set<std::string> gauges = ParseXMacro(hw_it->second, "PPCMM_HW_GAUGE_FIELDS");
  if (RuleEnabled(config, "CNT-XMACRO-033") && (counters.empty() || gauges.empty())) {
    out->push_back({paths.hw_counters_h, 1, "CNT-XMACRO-033",
                    "failed to parse a non-empty field list out of PPCMM_HW_COUNTER_FIELDS/"
                    "PPCMM_HW_GAUGE_FIELDS",
                    "keep the X-macro lists in the backslash-continued X(name, comment) shape"});
    return;
  }
  names.hw = counters;
  names.hw.insert(gauges.begin(), gauges.end());

  auto attr_it = tree.files.find(paths.attr_cc);
  if (attr_it != tree.files.end()) {
    names.causes = ParseCauseNames(attr_it->second);
  }

  // MetricsRegistry must publish through the X-macro visitor, and its sys.* literals must
  // match the rule table in both directions.
  auto metrics_it = tree.files.find(paths.metrics_cc);
  if (metrics_it != tree.files.end()) {
    const SourceFile& metrics = metrics_it->second;
    if (RuleEnabled(config, "CNT-FOREACH-031")) {
      const bool uses_visitor = !FindIdentifier(metrics.code, "ForEachField").empty();
      if (!uses_visitor) {
        Emit(metrics, 1, "CNT-FOREACH-031",
             "MetricsRegistry no longer publishes hw counters via HwCounters::ForEachField — "
             "a hand-maintained name list will silently drift from the X-macro",
             "iterate hw.ForEachField and build names as \"hw.\" + field", out);
      }
    }
    if (RuleEnabled(config, "CNT-SYS-034")) {
      std::set<std::string> published;
      for (const auto& [text, pos] : Literals(metrics)) {
        if (text.compare(0, 4, "sys.") == 0 && text.size() > 4) {
          published.insert(text.substr(4));
        }
      }
      for (const std::string& name : SysGaugeNames()) {
        if (published.count(name) == 0) {
          Emit(metrics, 1, "CNT-SYS-034",
               "sys." + name + " is in the mmu-lint gauge table but MetricsRegistry::Snapshot "
               "never publishes it",
               "publish the gauge or remove it from SysGaugeNames() in tools/mmu-lint/rules.cc",
               out);
        }
      }
      for (const std::string& name : published) {
        bool known = false;
        for (const std::string& t : SysGaugeNames()) {
          known = known || t == name;
        }
        if (!known) {
          Emit(metrics, 1, "CNT-SYS-034",
               "MetricsRegistry publishes sys." + name + " but the mmu-lint gauge table does "
               "not know it — docs referencing it would lint clean or dirty at random",
               "add it to SysGaugeNames() in tools/mmu-lint/rules.cc", out);
        }
      }
    }
  }

  // References: string literals in every scanned source file, plus the markdown docs.
  for (const auto& [path, sf] : tree.files) {
    if (path == paths.metrics_cc || path == paths.hw_counters_h) {
      continue;  // the producers themselves assemble names from parts; checked above
    }
    for (const auto& [text, pos] : Literals(sf)) {
      CheckReferencesIn(config, sf, text, pos, names, out);
    }
  }
  for (const auto& [path, sf] : tree.markdown) {
    CheckReferencesIn(config, sf, sf.raw, 0, names, out);
  }
}

}  // namespace mmulint
