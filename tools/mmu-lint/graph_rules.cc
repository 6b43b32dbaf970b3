// Three interprocedural analyses over the src/ call graph. The fourth, HOT-CLOSURE-030,
// lives with the other hot-tier checks in hotpath.cc.
//
//   FLUSH-CONTRACT-029  every HTAB/PTE mutation reaches a flush primitive on the call
//                       graph (or is annotated deferred-flush with a reason) — the
//                       static form of the invariant the coherence auditor checks at
//                       runtime: a stale translation must be invalidated (tlbie/tlbia,
//                       IPI shootdown) or made architecturally unreachable (VSID retire).
//   SMP-CONFINE-031     per-CPU state is touched only inside the spotlight/shootdown
//                       gateway functions; everything else sees exactly one CPU.
//   ATTR-COVER-032      every AddCycles/AddCyclesOn site in src/kernel sits under a
//                       CycleScope on every call path from the kernel entry points, so
//                       the profiler's "100% attributed" claim holds by construction.
//
// The graph (tools/mmu-lint/callgraph.cc) has edges only where the resolver is confident,
// and what a missing edge does differs per analysis; DESIGN.md §16 spells it out.

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/mmu-lint/callgraph.h"
#include "tools/mmu-lint/rules.h"

namespace mmulint {
namespace {

const FlushMutator* FindMutator(const std::string& id) {
  for (const FlushMutator& m : FlushMutators()) {
    if (m.id == id) {
      return &m;
    }
  }
  return nullptr;
}

bool IsFlushPrimitive(const std::string& id) {
  const auto& prims = FlushPrimitives();
  return std::find(prims.begin(), prims.end(), id) != prims.end();
}

// True when `node` (or anything it transitively calls) invokes a flush primitive or
// carries a deferred-flush annotation. Only descends into nodes defined in the tree.
bool ReachesFlush(const Tree& tree, const CallGraph& graph, const CallNode& node) {
  std::set<std::string> visited = {node.id};
  std::deque<const CallNode*> queue = {&node};
  while (!queue.empty()) {
    const CallNode* cur = queue.front();
    queue.pop_front();
    for (const FuncDef& def : cur->defs) {
      const SourceFile& sf = tree.files.at(def.file);
      const SourceFile::Annotation* ann = SourceFile::AnnotationIn(
          sf.deferred_flush, def.name_pos, def.body_end, "FLUSH-CONTRACT-029");
      if (ann != nullptr && !ann->reason.empty()) {
        return true;
      }
    }
    for (const CallSite& call : cur->calls) {
      if (IsFlushPrimitive(call.callee)) {
        return true;
      }
      auto it = graph.nodes.find(call.callee);
      if (it != graph.nodes.end() && visited.insert(call.callee).second) {
        queue.push_back(&it->second);
      }
    }
  }
  return false;
}

void CheckFlushContract(const LintConfig& config, const Tree& tree, const CallGraph& graph,
                        std::vector<Diagnostic>* out) {
  if (!RuleEnabled(config, "FLUSH-CONTRACT-029")) {
    return;
  }
  for (const auto& [id, node] : graph.nodes) {
    if (IsFlushPrimitive(id)) {
      continue;  // a primitive's own writes are the flush mechanism
    }
    bool checked_reach = false;
    bool reaches = false;
    for (const CallSite& call : node.calls) {
      // Only the confident resolution tiers accuse: a unique-name fallback edge onto a
      // mutator would risk indicting the wrong function.
      if (call.kind != CallSite::Kind::kQualified && call.kind != CallSite::Kind::kMember) {
        continue;
      }
      const FlushMutator* mutator = FindMutator(call.callee);
      if (mutator == nullptr) {
        continue;
      }
      if (!checked_reach) {
        checked_reach = true;
        reaches = ReachesFlush(tree, graph, node);
      }
      if (reaches) {
        continue;
      }
      const SourceFile& sf = tree.files.at(call.file);
      Emit(sf, call.line, "FLUSH-CONTRACT-029",
           call.callee + " in " + id + " mutates " + mutator->structure +
               " with no flush primitive reachable on any call path and no "
               "mmu-lint-deferred-flush annotation — a stale TLB entry survives the write",
           mutator->flush_hint, out);
    }
    // Annotations must carry a reason; a bare marker is itself a finding.
    for (const FuncDef& def : node.defs) {
      const SourceFile& sf = tree.files.at(def.file);
      const SourceFile::Annotation* ann = SourceFile::AnnotationIn(
          sf.deferred_flush, def.name_pos, def.body_end, "FLUSH-CONTRACT-029");
      if (ann != nullptr && ann->reason.empty()) {
        Emit(sf, ann->line, "FLUSH-CONTRACT-029",
             "mmu-lint-deferred-flush annotation on " + id +
                 " has no reason — the deferred-flush contract requires one",
             "append `: <why the flush is deferred and where it happens>`", out);
      }
    }
  }
}

void CheckSmpConfine(const LintConfig& config, const Tree& tree, const CallGraph& graph,
                     LintResult* result) {
  if (!RuleEnabled(config, "SMP-CONFINE-031")) {
    return;
  }
  const auto& gateways = SmpGateways();
  // The gateway table names real functions; if the kernel is in the tree (i.e. this is
  // not a partial fixture), each must still exist or the table has rotted.
  if (tree.files.count("src/kernel/kernel.cc") != 0) {
    for (const std::string& gw : gateways) {
      if (graph.nodes.count(gw) == 0) {
        result->errors.push_back("SMP-CONFINE-031 gateway " + gw +
                                 " is not defined anywhere in src/: update SmpGateways() "
                                 "in tools/mmu-lint/rules.cc");
      }
    }
  }
  for (const auto& [path, sf] : tree.files) {
    if (path.compare(0, 4, "src/") != 0 || path.compare(0, 11, "src/verify/") == 0) {
      continue;
    }
    const auto& exempt = SmpConfineExemptFiles();
    if (std::find(exempt.begin(), exempt.end(), path) != exempt.end()) {
      continue;
    }
    for (const SmpConfinedToken& token : SmpConfinedTokens()) {
      for (size_t pos : FindIdentifier(sf.code, token.token)) {
        if (token.accessor) {
          // Only the per-CPU form `name(cpu)` is confined; `name()` is the spotlight view.
          const size_t open = sf.code.find_first_not_of(" \t\n", pos + token.token.size());
          if (open == std::string::npos || sf.code[open] != '(') {
            continue;
          }
          const size_t arg = sf.code.find_first_not_of(" \t\n", open + 1);
          if (arg == std::string::npos || sf.code[arg] == ')') {
            continue;
          }
        }
        const CallNode* fn = EnclosingFunction(graph, path, pos, nullptr);
        if (fn != nullptr &&
            std::find(gateways.begin(), gateways.end(), fn->id) != gateways.end()) {
          continue;
        }
        Emit(sf, LineOf(sf.code, pos), "SMP-CONFINE-031",
             token.token + (token.accessor ? "(cpu)" : "") + " in " +
                 (fn != nullptr ? fn->id : path) +
                 " touches per-CPU state outside the spotlight/shootdown gateways — "
                 "remote banks change only via SwitchCpu or the IPI protocol",
             "route the access through Kernel::SwitchCpu / FlushEngine::ShootdownRound, "
             "or register the function in SmpGateways() (tools/mmu-lint/rules.cc) with "
             "an audit note",
             &result->diagnostics);
      }
    }
  }
}

void CheckAttrCover(const LintConfig& config, const Tree& tree, const CallGraph& graph,
                    LintResult* result) {
  if (!RuleEnabled(config, "ATTR-COVER-032")) {
    return;
  }
  if (tree.files.count("src/kernel/kernel.cc") != 0) {
    for (const std::string& root : KernelEntryPoints()) {
      if (graph.nodes.count(root) == 0) {
        result->errors.push_back("ATTR-COVER-032 entry point " + root +
                                 " is not defined anywhere in src/: update "
                                 "KernelEntryPoints() in tools/mmu-lint/rules.cc");
      }
    }
  }

  // Kernel-scope nodes, their CycleScope token positions, and their charge sites.
  struct NodeInfo {
    const CallNode* node = nullptr;
    // Per def: sorted CycleScope token offsets inside the body.
    std::vector<std::vector<size_t>> scopes;
  };
  std::map<std::string, NodeInfo> info;
  for (const auto& [id, node] : graph.nodes) {
    if (node.defs.front().file.compare(0, 11, "src/kernel/") != 0) {
      continue;
    }
    NodeInfo ni;
    ni.node = &node;
    for (const FuncDef& def : node.defs) {
      const std::string& code = tree.files.at(def.file).code;
      std::vector<size_t> scopes;
      for (size_t pos : FindIdentifier(code, "CycleScope")) {
        if (pos > def.body_begin && pos < def.body_end) {
          scopes.push_back(pos);
        }
      }
      ni.scopes.push_back(scopes);
    }
    info.emplace(id, std::move(ni));
  }
  const auto scoped_before = [&](const NodeInfo& ni, size_t def_index, size_t pos) {
    for (size_t s : ni.scopes[def_index]) {
      if (s < pos) {
        return true;
      }
    }
    return false;
  };

  // Worklist: which kernel-scope nodes can be entered with no CycleScope open, and from
  // which entry point (for the diagnostic).
  std::map<std::string, std::string> unscoped_from;
  std::deque<std::string> queue;
  for (const std::string& root : KernelEntryPoints()) {
    if (info.count(root) != 0 && unscoped_from.emplace(root, root).second) {
      queue.push_back(root);
    }
  }
  while (!queue.empty()) {
    const std::string id = queue.front();
    queue.pop_front();
    const NodeInfo& ni = info.at(id);
    const std::string& root = unscoped_from.at(id);
    for (const CallSite& call : ni.node->calls) {
      if (info.count(call.callee) == 0) {
        continue;  // charges outside src/kernel are the hardware model's, not the kernel's
      }
      if (scoped_before(ni, call.def_index, call.pos)) {
        continue;  // every path through this call site is already attributed
      }
      if (unscoped_from.emplace(call.callee, root).second) {
        queue.push_back(call.callee);
      }
    }
  }

  for (const auto& [id, root] : unscoped_from) {
    const NodeInfo& ni = info.at(id);
    for (size_t di = 0; di < ni.node->defs.size(); ++di) {
      const FuncDef& def = ni.node->defs[di];
      const SourceFile& sf = tree.files.at(def.file);
      const SourceFile::Annotation* ann = SourceFile::AnnotationIn(
          sf.ambient, def.name_pos, def.body_end, "ATTR-COVER-032");
      if (ann != nullptr && ann->reason.empty()) {
        Emit(sf, ann->line, "ATTR-COVER-032",
             "mmu-lint-ambient annotation on " + id + " has no reason — deliberate "
                 "ambient charges must say why they are user time",
             "append `: <why this charge is deliberately unattributed>`", &result->diagnostics);
        continue;
      }
      if (ann != nullptr) {
        continue;  // audited ambient charge (e.g. user-mode instruction time)
      }
      for (const char* charge : {"AddCycles", "AddCyclesOn"}) {
        for (size_t pos : FindIdentifier(sf.code, charge)) {
          if (pos <= def.body_begin || pos >= def.body_end) {
            continue;
          }
          const size_t open = sf.code.find_first_not_of(" \t\n", pos + std::string(charge).size());
          if (open == std::string::npos || sf.code[open] != '(') {
            continue;
          }
          if (scoped_before(ni, di, pos)) {
            continue;
          }
          Emit(sf, LineOf(sf.code, pos), "ATTR-COVER-032",
               std::string(charge) + " in " + id + " can run with no CycleScope open " +
                   "(unattributed path from " + root + ") — the cycles silently land in "
                   "the ambient/user bucket and the profiler's 100%-attributed claim breaks",
               "open a CycleScope(machine_, AttrCause::...) covering the charge, or mark "
               "the function `// mmu-lint-ambient(ATTR-COVER-032): <reason>` if this is "
               "deliberately user time",
               &result->diagnostics);
        }
      }
    }
  }
}

}  // namespace

void CheckGraphRules(const LintConfig& config, const Tree& tree, const CallGraph& graph,
                     LintResult* result) {
  CheckFlushContract(config, tree, graph, &result->diagnostics);
  CheckSmpConfine(config, tree, graph, result);
  CheckAttrCover(config, tree, graph, result);
}

}  // namespace mmulint
