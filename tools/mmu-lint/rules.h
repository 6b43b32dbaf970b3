// Declarative rule tables + per-family check entry points (internal to mmu-lint).
//
// Everything the checks enforce lives in the tables defined in rules.cc; the check
// functions in layering.cc / determinism.cc / hotpath.cc / counters.cc are generic
// interpreters over them. Adding a hot function, banning a new identifier, or renaming a
// layer is a one-line table edit.

#ifndef PPCMM_TOOLS_MMU_LINT_RULES_H_
#define PPCMM_TOOLS_MMU_LINT_RULES_H_

#include <map>
#include <string>
#include <vector>

#include "tools/mmu-lint/lint.h"
#include "tools/mmu-lint/source.h"

namespace mmulint {

// ---- Layering (LAYER-*) --------------------------------------------------------------

struct Layer {
  std::string prefix;  // path prefix, e.g. "src/mmu/"
  int rank;            // a file may include same-directory peers or strictly lower ranks
};

// `src/sim` is the foundation; `mmu` and `pagetable` are rank-equal peers that must not
// include each other; `core` is the composition root (facade) that may see everything
// below it; `obs` reads core but never the reverse; `verify` sits on top so the oracle
// and auditors can see the whole stack while nothing depends on them.
const std::vector<Layer>& Layers();

struct ClosureRule {
  std::string id;
  std::vector<std::string> roots;      // files whose include closure is checked
  std::vector<std::string> forbidden;  // path prefixes that must not appear in the closure
  std::string why;                     // appended to the diagnostic
};

// LAYER-ORACLE-002 (fuzz oracle independence) and LAYER-HOT-OBS-003 (hot headers vs obs).
const std::vector<ClosureRule>& ClosureRules();

// ---- Determinism (DET-*) -------------------------------------------------------------

struct BannedIdent {
  std::string id;     // rule that fires
  std::string ident;  // identifier to flag
  std::string why;
  std::string fix;
};

const std::vector<BannedIdent>& DeterminismBans();

// Files under these prefixes feed simulated state and are in scope for DET-* rules.
const std::vector<std::string>& DeterminismScope();
// Exact paths exempt from DET-* (the one sanctioned randomness source).
const std::vector<std::string>& DeterminismAllowlist();

// Exact paths exempt from one DET-* rule alone.
struct RuleExemption {
  std::string rule;
  std::string path;
};
const std::vector<RuleExemption>& DeterminismRuleExemptions();

// ---- Hot-path purity (HOT-*) ---------------------------------------------------------

struct HotFunction {
  std::string file;       // root-relative path holding the definition
  std::string qualifier;  // class name for the message, e.g. "Tlb"
  std::string name;       // unqualified function name to locate, e.g. "LookupPtr"
  // Extra identifiers banned in THIS body beyond the global hot-path bans — the
  // PTE-tree virtual entry points, banned only where the function is in the
  // pure-translation tier (reload tiers legitimately walk the tree).
  std::vector<std::string> banned_virtual;
};

const std::vector<HotFunction>& HotFunctions();

// Globally banned inside every hot function body, with the rule that fires.
const std::vector<BannedIdent>& HotPathBans();

// SPAN-GEN-027: translation-span validity comes from a side-effect-free lookup. The
// registered span-validity bodies (the Mmu::ReplaySpan gate and its AccessRun caller) must
// not consult wall-clock time or launder pointer identity into validity state — a recycled
// TlbEntry at the same address must still be judged by its tag. Missing registered bodies
// fall under HOT-MISSING-025 like the hot functions.
const std::vector<HotFunction>& SpanValidityFunctions();
const std::vector<BannedIdent>& SpanValidityBans();

// HOT-ATTR-026: hot-path headers (the LAYER-HOT-OBS-003 root set minus machine.h, which
// owns the ledger and defines CycleScope) must not reach observability state directly —
// no MetricsRegistry/BenchReport construction, no CycleLedger reference, no attr()
// access. Attribution flows only through the CycleScope hook. Scanned whole-file, not
// per-body: a header holding a ledger reference is a violation even outside a function.
const std::vector<std::string>& AttrCleanHeaders();
const std::vector<BannedIdent>& AttrBans();

// ---- SMP IPI discipline (SMP-*) --------------------------------------------------------

// SMP-IPI-028: cross-CPU TLB invalidation must flow through the IPI shootdown protocol in
// src/kernel/flush.cc. Mmu::ShootdownInvalidatePage / ShootdownInvalidateAll exist solely
// as the remote IPI handler's landing pads; any other caller mutates another CPU's TLB
// without sending an IPI, so no cycles are charged, no shootdown counter moves, and the
// idle-skip/deferred-flush bookkeeping silently rots. Scanned whole-file over src/.
const std::vector<BannedIdent>& SmpIpiBans();
// Exact paths allowed to name the shootdown entry points: the Mmu that defines them and
// the flush engine that implements the IPI protocol.
const std::vector<std::string>& SmpIpiAllowlist();

// ---- Interprocedural rules (call-graph based) ----------------------------------------

// Receiver-token resolution for the call-graph builder: member/variable names whose class
// is fixed by convention across the tree (`htab_.Insert(...)` -> HashTable::Insert).
struct ReceiverType {
  std::string token;  // receiver identifier as written, e.g. "htab_"
  std::string cls;    // class it holds, e.g. "HashTable"
};
const std::vector<ReceiverType>& ReceiverTypes();
// Accessor-method resolution for chained calls: `mmu_->htab().Insert(...)` resolves the
// receiver through the method in front of the parens (htab -> HashTable).
const std::vector<ReceiverType>& MethodReturnTypes();

// FLUSH-CONTRACT-029: every call to one of these mutators must reach a flush primitive.
struct FlushMutator {
  std::string id;         // call-graph node id, e.g. "PageTable::Update"
  std::string structure;  // what it writes, for the diagnostic
  std::string flush_hint;  // fix text naming the nearest flush primitive
};
const std::vector<FlushMutator>& FlushMutators();
// Call-graph node ids that count as TLB-coherence flush primitives (tlbie/tlbia wrappers,
// the IPI shootdown path, and the lazy VSID retirement that makes stale entries
// architecturally unreachable).
const std::vector<std::string>& FlushPrimitives();

// HOT-CLOSURE-030: transitive closure from the HotFunctions() roots, minus these audited
// boundary functions (each with the reason it may stop the descent).
struct ClosureBoundary {
  std::string id;
  std::string why;
};
const std::vector<ClosureBoundary>& HotClosureBoundaries();

// SMP-CONFINE-031: identifiers that touch per-CPU state. `always` tokens are confined
// wherever they appear; accessor tokens only in their per-CPU form `name(cpu)` — the
// argless current-bank form `name()` is the sanctioned spotlight view.
struct SmpConfinedToken {
  std::string token;
  bool accessor = false;  // true: only the with-args call form is confined
};
const std::vector<SmpConfinedToken>& SmpConfinedTokens();
// Functions allowed to touch per-CPU state directly (the spotlight switch and the
// shootdown/deferred-flush path), as call-graph node ids.
const std::vector<std::string>& SmpGateways();
// Exact file paths exempt from SMP-CONFINE-031: the definitions of the per-CPU state and
// spotlight machinery themselves. src/verify/ is exempt wholesale (auditors and torture
// reports legitimately inspect every CPU's bank).
const std::vector<std::string>& SmpConfineExemptFiles();

// ATTR-COVER-032: kernel entry points — the roots unattributed (ambient) cycles flow in
// from. Every AddCycles/AddCyclesOn site reachable from here without an intervening
// CycleScope is a hole in the "100% cycles attributed" guarantee.
const std::vector<std::string>& KernelEntryPoints();

// ---- Counter consistency (CNT-*) -----------------------------------------------------

struct CounterPaths {
  std::string hw_counters_h = "src/sim/hw_counters.h";
  std::string metrics_cc = "src/obs/metrics.cc";
  std::string attr_cc = "src/sim/attr.cc";
};

// Dotted sys.* gauge names MetricsRegistry publishes, kept here so docs/tests referencing
// them are checkable. Must match the Set() calls in metrics.cc (CNT-SYS-034 verifies).
const std::vector<std::string>& SysGaugeNames();

// ---- Check entry points (each appends to *out) ---------------------------------------

// Shared scan state handed to every family.
struct Tree {
  std::string root;
  std::map<std::string, SourceFile> files;     // rel path -> parsed file (sources only)
  std::map<std::string, SourceFile> markdown;  // scanned .md files (counter rules only)
};

void CheckLayering(const LintConfig& config, const Tree& tree, std::vector<Diagnostic>* out);
void CheckDeterminism(const LintConfig& config, const Tree& tree, std::vector<Diagnostic>* out);
void CheckHotPaths(const LintConfig& config, const Tree& tree, std::vector<Diagnostic>* out);
void CheckSmp(const LintConfig& config, const Tree& tree, std::vector<Diagnostic>* out);
void CheckCounters(const LintConfig& config, const Tree& tree, std::vector<Diagnostic>* out);

// The four interprocedural analyses (FLUSH-CONTRACT-029, HOT-CLOSURE-030, SMP-CONFINE-031,
// ATTR-COVER-032), in graph_rules.cc. Takes the whole LintResult so rule-table staleness
// (a gateway or entry point no longer defined) surfaces as an error, not a silent pass.
struct CallGraph;
void CheckGraphRules(const LintConfig& config, const Tree& tree, const CallGraph& graph,
                     LintResult* result);

// Helper shared by checks: appends a diagnostic unless suppressed in `sf`.
void Emit(const SourceFile& sf, uint32_t line, const std::string& rule, const std::string& message,
          const std::string& fix, std::vector<Diagnostic>* out);

}  // namespace mmulint

#endif  // PPCMM_TOOLS_MMU_LINT_RULES_H_
