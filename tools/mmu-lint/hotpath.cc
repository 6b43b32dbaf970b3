// HOT-* checks: the registered hot-path function bodies stay allocation-, exception-,
// lock-, and I/O-free, and the pure-translation tier never dispatches into the PTE tree.
//
// Body extraction is token-level: find the function name, require `( ... )` then
// (optionally `const`/`noexcept`/`override`) a `{`, and brace-match. Call sites fail the
// `{` test (they end in `;`, `)`, `,` ...), so the same name used as a call is skipped.
// The check is non-transitive by design: it reads the tokens the author wrote in the
// listed body, and the boundary helpers those bodies call (Tlb::Insert, Rng) are the
// audited escape hatch — see DESIGN.md §12.

#include <string>
#include <vector>

#include "tools/mmu-lint/rules.h"

namespace mmulint {
namespace {

// [begin, end) byte range of `name`'s body in sf.code, or {npos, npos} if no definition of
// that name with a braced body exists in the file.
std::pair<size_t, size_t> FindBody(const SourceFile& sf, const std::string& name) {
  for (size_t pos : FindIdentifier(sf.code, name)) {
    size_t p = sf.code.find_first_not_of(" \t\n", pos + name.size());
    if (p == std::string::npos || sf.code[p] != '(') {
      continue;
    }
    p = MatchForward(sf.code, p, '(', ')');
    if (p == std::string::npos) {
      continue;
    }
    // Skip trailing qualifiers between the parameter list and the body.
    for (;;) {
      p = sf.code.find_first_not_of(" \t\n", p);
      if (p == std::string::npos) {
        break;
      }
      bool skipped = false;
      for (const char* qual : {"const", "noexcept", "override", "final"}) {
        const std::string q(qual);
        if (sf.code.compare(p, q.size(), q) == 0) {
          p += q.size();
          skipped = true;
          break;
        }
      }
      if (!skipped) {
        break;
      }
    }
    if (p == std::string::npos || sf.code[p] != '{') {
      continue;  // declaration or call site, not a definition
    }
    const size_t end = MatchForward(sf.code, p, '{', '}');
    if (end == std::string::npos) {
      continue;
    }
    return {p, end};
  }
  return {std::string::npos, std::string::npos};
}

void CheckBody(const LintConfig& config, const SourceFile& sf, const HotFunction& fn,
               size_t begin, size_t end, std::vector<Diagnostic>* out) {
  const std::string body = sf.code.substr(begin, end - begin);
  const std::string label = fn.qualifier + "::" + fn.name;
  for (const BannedIdent& ban : HotPathBans()) {
    if (!RuleEnabled(config, ban.id)) {
      continue;
    }
    for (size_t pos : FindIdentifier(body, ban.ident)) {
      Emit(sf, LineOf(sf.code, begin + pos), ban.id,
           ban.ident + " in hot-path function " + label + ": " + ban.why, ban.fix, out);
    }
  }
  if (RuleEnabled(config, "HOT-VIRT-024")) {
    for (const std::string& ident : fn.banned_virtual) {
      for (size_t pos : FindIdentifier(body, ident)) {
        Emit(sf, LineOf(sf.code, begin + pos), "HOT-VIRT-024",
             label + " calls " + ident +
                 ": the pure-translation tier must not dispatch into the PTE tree "
                 "(only the reload tier may walk it)",
             "move the walk into Mmu::Reload/SoftwareRefill and consume its PteWalkInfo here",
             out);
      }
    }
  }
}

}  // namespace

void CheckHotPaths(const LintConfig& config, const Tree& tree, std::vector<Diagnostic>* out) {
  // HOT-ATTR-026: whole-file scan of the attribution-free hot headers. Unlike the body
  // checks below this is not scoped to registered functions — a ledger reference anywhere
  // in one of these headers (member, friend, helper) defeats the CycleScope contract.
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

  for (const HotFunction& fn : HotFunctions()) {
    auto it = tree.files.find(fn.file);
    const std::string label = fn.qualifier + "::" + fn.name;
    if (it == tree.files.end()) {
      if (RuleEnabled(config, "HOT-MISSING-025")) {
        out->push_back({fn.file, 1, "HOT-MISSING-025",
                        "hot-path rule table lists " + label + " in " + fn.file +
                            ", but the file is not in the tree",
                        "update HotFunctions() in tools/mmu-lint/rules.cc to the new location"});
      }
      continue;
    }
    const auto [begin, end] = FindBody(it->second, fn.name);
    if (begin == std::string::npos) {
      if (RuleEnabled(config, "HOT-MISSING-025")) {
        out->push_back({fn.file, 1, "HOT-MISSING-025",
                        "hot-path rule table lists " + label +
                            ", but no definition with a body was found in " + fn.file,
                        "update HotFunctions() in tools/mmu-lint/rules.cc to the new location"});
      }
      continue;
    }
    CheckBody(config, it->second, fn, begin, end, out);
  }

  // SPAN-GEN-027: the registered span-validity bodies must derive validity from a
  // side-effect-free lookup alone — no wall-clock reads, no pointer identity smuggled in
  // through casts. Missing bodies rot the table exactly like hot functions, so they fall
  // under HOT-MISSING-025 too.
  for (const HotFunction& fn : SpanValidityFunctions()) {
    const std::string label = fn.qualifier + "::" + fn.name;
    auto it = tree.files.find(fn.file);
    const auto [begin, end] =
        it != tree.files.end()
            ? FindBody(it->second, fn.name)
            : std::pair<size_t, size_t>{std::string::npos, std::string::npos};
    if (begin == std::string::npos) {
      if (RuleEnabled(config, "HOT-MISSING-025")) {
        out->push_back(
            {fn.file, 1, "HOT-MISSING-025",
             "span-validity rule table lists " + label +
                 ", but no definition with a body was found in " + fn.file,
             "update SpanValidityFunctions() in tools/mmu-lint/rules.cc to the new location"});
      }
      continue;
    }
    const SourceFile& sf = it->second;
    const std::string body = sf.code.substr(begin, end - begin);
    for (const BannedIdent& ban : SpanValidityBans()) {
      if (!RuleEnabled(config, ban.id)) {
        continue;
      }
      for (size_t pos : FindIdentifier(body, ban.ident)) {
        Emit(sf, LineOf(sf.code, begin + pos), ban.id,
             ban.ident + " in span-validity function " + label + ": " + ban.why, ban.fix,
             out);
      }
    }
  }
}

}  // namespace mmulint
