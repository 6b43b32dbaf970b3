// Tree walking and rule-family dispatch.

#include "tools/mmu-lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/mmu-lint/callgraph.h"
#include "tools/mmu-lint/rules.h"
#include "tools/mmu-lint/source.h"

namespace mmulint {
namespace {

namespace fs = std::filesystem;

// Source roots. tools/ is deliberately not scanned: the rule tables spell the banned
// names, and the fixture corpus under tools/mmu-lint/fixtures must only be linted when a
// test points --root at it directly.
constexpr const char* kSourceDirs[] = {"src", "tests", "bench", "examples"};
// Docs whose hw./sys./lat. references the counter rules validate. SNIPPETS.md is excluded
// on purpose — it quotes third-party exemplar code verbatim.
constexpr const char* kMarkdownFiles[] = {"EXPERIMENTS.md", "README.md", "DESIGN.md"};

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

void LoadTree(const LintConfig& config, Tree* tree, LintResult* result) {
  tree->root = config.root;
  const fs::path root(config.root);
  for (const char* dir : kSourceDirs) {
    const fs::path base = root / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) {
      continue;  // fixture trees routinely have only some of the roots
    }
    for (fs::recursive_directory_iterator it(base, ec), end; it != end; it.increment(ec)) {
      if (ec) {
        result->errors.push_back("walk failed under " + base.string() + ": " + ec.message());
        break;
      }
      if (!it->is_regular_file() || !IsSourceFile(it->path())) {
        continue;
      }
      const std::string rel = fs::relative(it->path(), root).generic_string();
      SourceFile sf;
      std::string error;
      if (!LoadSource(it->path().string(), rel, &sf, &error)) {
        result->errors.push_back(error);
        continue;
      }
      tree->files.emplace(rel, std::move(sf));
      ++result->files_scanned;
    }
  }
  for (const char* name : kMarkdownFiles) {
    const fs::path p = root / name;
    std::error_code ec;
    if (!fs::is_regular_file(p, ec)) {
      continue;
    }
    SourceFile sf;
    std::string error;
    if (!LoadSource(p.string(), name, &sf, &error)) {
      result->errors.push_back(error);
      continue;
    }
    tree->markdown.emplace(name, std::move(sf));
    ++result->files_scanned;
  }
}

// The closure rules name specific files; if the real tree no longer has them, the rule
// tables have rotted and the run must not quietly pass. Fixture trees opt out by running
// with a --rules filter that skips the family.
void CheckRuleTableRoots(const LintConfig& config, const Tree& tree, LintResult* result) {
  for (const ClosureRule& rule : ClosureRules()) {
    if (!RuleEnabled(config, rule.id)) {
      continue;
    }
    for (const std::string& root : rule.roots) {
      if (tree.files.find(root) == tree.files.end()) {
        result->errors.push_back(rule.id + " root " + root +
                                 " is missing from the tree: update ClosureRules() in "
                                 "tools/mmu-lint/rules.cc");
      }
    }
  }
}

// Drops diagnostics matching baseline entries (`RULE-ID <file>  # reason` lines). A
// baselined finding that no longer fires is stale and turns into an error — the baseline
// may only shrink silently, never rot.
void ApplyBaseline(const LintConfig& config, LintResult* result) {
  const bool explicit_path = !config.baseline_path.empty();
  const std::string path =
      explicit_path ? config.baseline_path
                    : (fs::path(config.root) / "tools/mmu-lint/baseline.txt").string();
  std::ifstream in(path);
  if (!in) {
    if (explicit_path) {
      result->errors.push_back("cannot open baseline file " + path);
    }
    return;  // no auto-baseline in this tree: nothing to subtract
  }
  struct Entry {
    std::string rule, file;
    uint32_t line_no;
    bool used = false;
  };
  std::vector<Entry> entries;
  std::string line;
  uint32_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    std::istringstream fields(line);
    Entry entry;
    entry.line_no = line_no;
    if (!(fields >> entry.rule >> entry.file)) {
      continue;  // blank or comment-only line
    }
    std::string extra;
    if (fields >> extra) {
      result->errors.push_back(path + ":" + std::to_string(line_no) +
                               ": malformed baseline entry (want `RULE-ID <file>  # reason`)");
      continue;
    }
    entries.push_back(entry);
  }
  std::vector<Diagnostic> kept;
  for (const Diagnostic& d : result->diagnostics) {
    bool matched = false;
    for (Entry& entry : entries) {
      if (entry.rule == d.rule && entry.file == d.file) {
        entry.used = true;
        matched = true;
      }
    }
    if (!matched) {
      kept.push_back(d);
    }
  }
  result->diagnostics = std::move(kept);
  for (const Entry& entry : entries) {
    if (!entry.used) {
      result->errors.push_back(path + ":" + std::to_string(entry.line_no) +
                               ": stale baseline entry `" + entry.rule + " " + entry.file +
                               "`: no such finding anymore — delete the line");
    }
  }
}

}  // namespace

LintResult RunLint(const LintConfig& config) {
  LintResult result;
  Tree tree;
  LoadTree(config, &tree, &result);
  if (!result.errors.empty()) {
    return result;
  }
  CheckRuleTableRoots(config, tree, &result);
  CheckLayering(config, tree, &result.diagnostics);
  CheckDeterminism(config, tree, &result.diagnostics);
  CheckSmp(config, tree, &result.diagnostics);
  CheckCounters(config, tree, &result.diagnostics);
  const CallGraph graph = BuildCallGraph(tree);
  CheckHotPaths(config, tree, graph, &result.diagnostics);
  CheckGraphRules(config, tree, graph, &result);
  std::sort(result.diagnostics.begin(), result.diagnostics.end());
  ApplyBaseline(config, &result);
  return result;
}

std::string DumpCallGraph(const LintConfig& config, const std::string& format,
                          std::vector<std::string>* errors) {
  if (format != "dot" && format != "json") {
    errors->push_back("unknown call-graph format '" + format + "' (want dot or json)");
    return std::string();
  }
  LintResult result;
  Tree tree;
  LoadTree(config, &tree, &result);
  if (!result.errors.empty()) {
    errors->insert(errors->end(), result.errors.begin(), result.errors.end());
    return std::string();
  }
  const CallGraph graph = BuildCallGraph(tree);
  return format == "dot" ? CallGraphToDot(graph) : CallGraphToJson(graph);
}

}  // namespace mmulint
