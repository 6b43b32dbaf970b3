// mmu-lint: project-specific static analysis for the ppcmm simulator.
//
// Five rule families, driven by the declarative tables in rules.cc and, for the hot tier,
// by mmu-lint-hot markers in the source:
//
//   LAYER-*  include-DAG layering (sim < mmu/pagetable < kernel < core < obs < workloads
//            < verify), fuzz-oracle independence, hot-path headers free of src/obs
//   DET-*    no nondeterminism sources in simulated state (rand, wall clocks,
//            unordered-container iteration, host threads outside the sweep pool)
//   HOT-*    marked hot entry points and everything they reach free of allocation,
//            throw, locks, stream I/O, and PTE-tree virtual dispatch
//   SMP-*    cross-CPU TLB mutation confined to the IPI shootdown path in
//            src/kernel/flush.cc (anything else edits a remote TLB for free)
//   CNT-*    HwCounters X-macro list consistent with MetricsRegistry dotted names and the
//            hw./sys./lat. references in docs and tests
//
// The checker is token/preprocessor-level on purpose: it needs no compiler, runs in
// milliseconds as a tier-1 ctest, and the invariants it enforces are all visible at that
// level. See DESIGN.md §12 for the contract behind each rule.

#ifndef PPCMM_TOOLS_MMU_LINT_LINT_H_
#define PPCMM_TOOLS_MMU_LINT_LINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mmulint {

struct Diagnostic {
  std::string file;   // root-relative path
  uint32_t line = 0;  // 1-based
  std::string rule;   // e.g. "LAYER-DAG-001"
  std::string message;
  std::string fix;  // one-line suggestion, shown under --fix-suggestions

  bool operator<(const Diagnostic& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    return rule < o.rule;
  }
};

struct LintConfig {
  std::string root;                     // repo root (absolute or relative)
  std::vector<std::string> rule_prefixes;  // empty = all rules; else keep rules matching any prefix
  // Baseline of accepted pre-existing findings, one per line: `RULE-ID <file>  # reason`.
  // Matching diagnostics are dropped; an entry matching nothing is stale and becomes an
  // error. Empty: auto-loads <root>/tools/mmu-lint/baseline.txt when present.
  std::string baseline_path;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;  // sorted by (file, line, rule)
  std::vector<std::string> errors;      // I/O or config problems (exit code 2)
  uint32_t files_scanned = 0;
};

// Runs every enabled rule family over the tree under config.root.
LintResult RunLint(const LintConfig& config);

// Builds the src/ call graph under config.root and serializes it. `format` is "dot" or
// "json" (--callgraph-dump); anything else, or an unreadable tree, appends to *errors and
// returns an empty string.
std::string DumpCallGraph(const LintConfig& config, const std::string& format,
                          std::vector<std::string>* errors);

// All known rule IDs with their one-line descriptions, for --list-rules.
std::vector<std::pair<std::string, std::string>> ListRules();

bool RuleEnabled(const LintConfig& config, const std::string& rule_id);

}  // namespace mmulint

#endif  // PPCMM_TOOLS_MMU_LINT_LINT_H_
