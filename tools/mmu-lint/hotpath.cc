// HOT-* and SPAN-GEN-027 checks: the hot tier stays allocation-, exception-, lock- and
// I/O-free, judges spans by lookup alone, and never dispatches into the PTE tree.
//
// The hot tier is declared where it is defined: each entry point carries
//   // mmu-lint-hot(HOT-CLOSURE-030): <reason>
// on its signature line or inside its body, and the src/ call graph finds the rest. The
// marked roots get the per-body bans (HOT-ALLOC/THROW/LOCK/IO, SPAN-GEN-027); everything
// reachable from them gets the purity bans under HOT-CLOSURE-030; roots and closure alike
// get the PTE-tree ban (HOT-VIRT-024), whose deliberate calls carry a mmu-lint-allow. A
// marker in no function definition is HOT-MISSING-025, and one without a reason is a
// HOT-CLOSURE-030 finding. See DESIGN.md §12.

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/mmu-lint/callgraph.h"
#include "tools/mmu-lint/rules.h"

namespace mmulint {
namespace {

constexpr const char* kHotRule = "HOT-CLOSURE-030";

// One diagnostic per occurrence of an enabled ban's identifier in `def`'s body. A non-empty
// `rule` replaces each ban's own id (the closure reports its purity bans as HOT-CLOSURE-030).
void ScanBody(const LintConfig& config, const Tree& tree, const FuncDef& def,
              const std::vector<BannedIdent>& bans, const std::string& rule,
              const std::string& where, std::vector<Diagnostic>* out) {
  const SourceFile& sf = tree.files.at(def.file);
  const std::string body = sf.code.substr(def.body_begin, def.body_end - def.body_begin);
  for (const BannedIdent& ban : bans) {
    const std::string& id = rule.empty() ? ban.id : rule;
    if (!RuleEnabled(config, id)) {
      continue;
    }
    for (size_t pos : FindIdentifier(body, ban.ident)) {
      Emit(sf, LineOf(sf.code, def.body_begin + pos), id,
           ban.ident + " in " + where + ": " + ban.why, ban.fix, out);
    }
  }
}

// The functions holding a hot marker. A marker outside every definition marks nothing
// (HOT-MISSING-025); one with no reason, or naming another rule, still marks its function
// but is itself a finding.
std::set<std::string> HotRoots(const LintConfig& config, const Tree& tree,
                               const CallGraph& graph, std::vector<Diagnostic>* out) {
  std::set<std::string> roots;
  for (const auto& [path, sf] : tree.files) {
    for (const SourceFile::Annotation& ann : sf.hot) {
      const CallNode* fn = EnclosingFunction(graph, path, ann.pos, nullptr);
      if (fn == nullptr) {
        if (RuleEnabled(config, "HOT-MISSING-025")) {
          Emit(sf, ann.line, "HOT-MISSING-025",
               "mmu-lint-hot marker lies in no function definition of the src/ call graph, "
               "so it marks nothing",
               "put the marker on the hot function's signature line or inside its body", out);
        }
        continue;
      }
      roots.insert(fn->id);
      if ((ann.reason.empty() || ann.rule != kHotRule) && RuleEnabled(config, kHotRule)) {
        Emit(sf, ann.line, kHotRule,
             "mmu-lint-hot marker on " + fn->id + " must name " + kHotRule +
                 " and give a reason",
             "write `// mmu-lint-hot(HOT-CLOSURE-030): <why this is a hot entry point>`", out);
      }
    }
  }
  return roots;
}

void CheckHotTier(const LintConfig& config, const Tree& tree, const CallGraph& graph,
                  std::vector<Diagnostic>* out) {
  const std::set<std::string> roots = HotRoots(config, tree, graph, out);
  for (const std::string& id : roots) {
    for (const FuncDef& def : graph.nodes.at(id).defs) {
      const std::string where = "hot function " + id;
      ScanBody(config, tree, def, HotPathBans(), "", where, out);
      ScanBody(config, tree, def, SpanValidityBans(), "", where, out);
      ScanBody(config, tree, def, PteTreeBans(), "", where, out);
    }
  }

  // BFS from the roots; parent links reconstruct the witness path for the message.
  std::set<std::string> boundary;
  for (const ClosureBoundary& b : HotClosureBoundaries()) {
    boundary.insert(b.id);
  }
  std::map<std::string, std::string> parent;
  std::set<std::string> visited = roots;
  std::deque<std::string> queue(roots.begin(), roots.end());
  while (!queue.empty()) {
    const std::string id = queue.front();
    queue.pop_front();
    for (const CallSite& call : graph.nodes.at(id).calls) {
      if (boundary.count(call.callee) != 0 || graph.nodes.count(call.callee) == 0 ||
          !visited.insert(call.callee).second) {
        continue;
      }
      parent[call.callee] = id;
      queue.push_back(call.callee);

      std::string path = call.callee;
      for (auto it = parent.find(call.callee); it != parent.end(); it = parent.find(it->second)) {
        path = it->second + " -> " + path;
      }
      const std::string where = call.callee + ", reachable from a hot root (" + path + ")";
      for (const FuncDef& def : graph.nodes.at(call.callee).defs) {
        ScanBody(config, tree, def, HotPathBans(), kHotRule, where, out);
        ScanBody(config, tree, def, PteTreeBans(), "", where, out);
      }
    }
  }
}

}  // namespace

void CheckHotPaths(const LintConfig& config, const Tree& tree, const CallGraph& graph,
                   std::vector<Diagnostic>* out) {
  // HOT-ATTR-026: whole-file scan of the attribution-free hot headers. Unlike the body
  // checks this is not scoped to functions — a ledger reference anywhere in one of these
  // headers (member, friend, helper) defeats the CycleScope contract.
  for (const std::string& header : AttrCleanHeaders()) {
    auto it = tree.files.find(header);
    if (it == tree.files.end()) {
      continue;  // fixtures carry partial trees; absence is fine
    }
    const SourceFile& sf = it->second;
    for (const BannedIdent& ban : AttrBans()) {
      if (!RuleEnabled(config, ban.id)) {
        continue;
      }
      for (size_t pos : FindIdentifier(sf.code, ban.ident)) {
        Emit(sf, LineOf(sf.code, pos), ban.id,
             ban.ident + " in hot header " + header + ": " + ban.why, ban.fix, out);
      }
    }
  }
  CheckHotTier(config, tree, graph, out);
}

}  // namespace mmulint
