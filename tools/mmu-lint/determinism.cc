// DET-* checks: keep host nondeterminism out of simulated state.
//
// Scope is all of src/: every file there either holds simulated state or computes results
// from it. The only whole-file exemption is src/sim/rng.h, the seeded RNG everything else
// must use; DeterminismRuleExemptions() lifts single rules from single files.

#include <set>
#include <string>
#include <vector>

#include "tools/mmu-lint/rules.h"

namespace mmulint {
namespace {

bool InScope(const std::string& path) {
  for (const std::string& prefix : DeterminismScope()) {
    if (path.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    for (const std::string& exempt : DeterminismAllowlist()) {
      if (path == exempt) {
        return false;
      }
    }
    return true;
  }
  return false;
}

bool ExemptFrom(const std::string& rule, const std::string& path) {
  for (const RuleExemption& exemption : DeterminismRuleExemptions()) {
    if (exemption.rule == rule && exemption.path == path) {
      return true;
    }
  }
  return false;
}

void CheckBannedIdents(const LintConfig& config, const SourceFile& sf,
                       std::vector<Diagnostic>* out) {
  for (const BannedIdent& ban : DeterminismBans()) {
    if (!RuleEnabled(config, ban.id) || ExemptFrom(ban.id, sf.path)) {
      continue;
    }
    for (size_t pos : FindIdentifier(sf.code, ban.ident)) {
      Emit(sf, LineOf(sf.code, pos), ban.id, ban.ident + ": " + ban.why, ban.fix, out);
    }
  }
}

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
}

// Names declared as std::unordered_{map,set,multimap,multiset}<...> in this file.
std::vector<std::string> UnorderedNames(const SourceFile& sf) {
  std::vector<std::string> names;
  for (const char* type : {"unordered_map", "unordered_set", "unordered_multimap",
                           "unordered_multiset"}) {
    for (size_t pos : FindIdentifier(sf.code, type)) {
      // Template args, then optional refs/pointers, then the declared name.
      size_t p = sf.code.find_first_not_of(" \t\n", pos + std::string(type).size());
      if (p == std::string::npos || sf.code[p] != '<') {
        continue;
      }
      p = MatchForward(sf.code, p, '<', '>');
      if (p == std::string::npos) {
        continue;
      }
      p = sf.code.find_first_not_of(" \t\n&*", p);
      if (p == std::string::npos || !IsIdentChar(sf.code[p])) {
        continue;  // e.g. a template argument or a cast, not a declaration
      }
      size_t end = p;
      while (end < sf.code.size() && IsIdentChar(sf.code[end])) {
        ++end;
      }
      names.push_back(sf.code.substr(p, end - p));
    }
  }
  return names;
}

// Flags range-for over `name` and name.begin()/cbegin(): both walk the container in hash
// order, which varies across standard libraries and (with randomized hashing) across runs.
// `names` is collected across the whole tree, not just this file — the classic bug is a
// member declared in the .h and iterated in the .cc.
void CheckUnorderedIteration(const SourceFile& sf, const std::set<std::string>& names,
                             std::vector<Diagnostic>* out) {
  for (const std::string& name : names) {
    for (size_t pos : FindIdentifier(sf.code, name)) {
      // `... : name` inside a for — the previous non-space char is a lone ':'.
      size_t before = pos;
      while (before > 0 && (sf.code[before - 1] == ' ' || sf.code[before - 1] == '\t' ||
                            sf.code[before - 1] == '\n')) {
        --before;
      }
      const bool range_for = before >= 1 && sf.code[before - 1] == ':' &&
                             (before < 2 || sf.code[before - 2] != ':');
      // name.begin( / name.cbegin(
      size_t after = pos + name.size();
      const bool begin_call =
          sf.code.compare(after, 7, ".begin(") == 0 || sf.code.compare(after, 8, ".cbegin(") == 0;
      if (range_for || begin_call) {
        Emit(sf, LineOf(sf.code, pos), "DET-ITER-012",
             "iteration over unordered container '" + name +
                 "' — visit order depends on the host hash seed and leaks into simulated state",
             "use std::map/std::set (or collect keys and sort) when order can reach simulated "
             "state; keep unordered containers for pure membership tests",
             out);
      }
    }
  }
}

}  // namespace

void CheckDeterminism(const LintConfig& config, const Tree& tree, std::vector<Diagnostic>* out) {
  std::set<std::string> unordered_names;
  if (RuleEnabled(config, "DET-ITER-012")) {
    for (const auto& [path, sf] : tree.files) {
      if (InScope(path)) {
        for (const std::string& name : UnorderedNames(sf)) {
          unordered_names.insert(name);
        }
      }
    }
  }
  for (const auto& [path, sf] : tree.files) {
    if (!InScope(path)) {
      continue;
    }
    CheckBannedIdents(config, sf, out);
    if (RuleEnabled(config, "DET-ITER-012")) {
      CheckUnorderedIteration(sf, unordered_names, out);
    }
  }
}

}  // namespace mmulint
