// Token-level symbol index and call graph over src/.
//
// mmu-lint's interprocedural rules (FLUSH-CONTRACT-029, HOT-CLOSURE-030, SMP-CONFINE-031,
// ATTR-COVER-032) need to reason about reachability, not just the tokens in one body. The
// builder stays at the same token/preprocessor level as the rest of the linter — no
// compiler, no external deps — and accepts the precision that buys:
//
//   definitions   `name ( params ) [quals] [ctor-init] {` with a brace-matched body;
//                 `Class::name` out-of-line and in-class-brace-range definitions both get
//                 the qualified id, overloads merge into one node with several defs
//   call edges    resolved in confidence tiers: explicit `Cls::name(` (kQualified);
//                 `recv.name(` / `recv->name(` through the receiver's declaration (a
//                 parameter, local or data member of the caller's class) or the
//                 declarative receiver tables (kMember); a bare call matching a method of
//                 the caller's own class (kSameClass); a bare call whose name is defined
//                 exactly once in the tree (kUnique). `name<args>(` is a call too, and
//                 `&name` an edge (the pointer is called later). A call through an UNKNOWN
//                 receiver gets no edge at all — wrong edges are worse than missing ones.
//
// The graph indexes src/ only: tests and benches may poke at anything, the contracts bind
// the simulator. See DESIGN.md §16 for the model and each rule's use of it.

#ifndef PPCMM_TOOLS_MMU_LINT_CALLGRAPH_H_
#define PPCMM_TOOLS_MMU_LINT_CALLGRAPH_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/mmu-lint/rules.h"

namespace mmulint {

struct FuncDef {
  std::string file;        // root-relative path
  uint32_t line = 0;       // line of the function name
  size_t name_pos = 0;     // byte offset of the name token in the file's stripped code
  size_t body_begin = 0;   // byte offset of the opening `{`
  size_t body_end = 0;     // one past the matching `}`
};

struct CallSite {
  enum class Kind { kQualified, kMember, kSameClass, kUnique };
  std::string callee;  // node id the edge points at (may be undefined in the tree)
  std::string file;    // caller's file
  uint32_t line = 0;   // line of the call token
  size_t pos = 0;      // byte offset of the call token in the caller's stripped code
  size_t def_index = 0;  // index into the caller node's defs: which body holds the call
  Kind kind = Kind::kUnique;
};

struct CallNode {
  std::string id;    // "Class::Name" for methods, "Name" for free functions
  std::string cls;   // "" for free functions
  std::string name;  // unqualified name
  std::vector<FuncDef> defs;    // one per overload / out-of-line body
  std::vector<CallSite> calls;  // accumulated over every def
};

struct CallGraph {
  std::map<std::string, CallNode> nodes;                    // id -> node
  std::set<std::string> classes;                            // every class/struct name seen
  std::map<std::string, std::vector<std::string>> by_name;  // unqualified name -> node ids
};

// Indexes every tree file under src/ and resolves call edges. Deterministic: iteration
// follows the Tree's sorted file map.
CallGraph BuildCallGraph(const Tree& tree);

// Innermost function definition containing byte offset `pos` of `file`, or nullptr. The
// node's def index is written to *def_index when non-null.
const CallNode* EnclosingFunction(const CallGraph& graph, const std::string& file, size_t pos,
                                  size_t* def_index);

// Serializers for --callgraph-dump. Both are deterministic (sorted node order).
std::string CallGraphToJson(const CallGraph& graph);
std::string CallGraphToDot(const CallGraph& graph);

const char* CallKindName(CallSite::Kind kind);

}  // namespace mmulint

#endif  // PPCMM_TOOLS_MMU_LINT_CALLGRAPH_H_
