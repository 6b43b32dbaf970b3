// mmu-lint CLI.
//
//   mmu-lint --root <repo> [--rules PREFIX[,PREFIX...]] [--fix-suggestions]
//   mmu-lint --list-rules
//
// Exit codes: 0 clean, 1 violations found, 2 usage or I/O error — so ctest and CI can
// tell "the tree is dirty" from "the linter could not run".

#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "tools/mmu-lint/lint.h"

namespace {

int Usage(std::ostream& out, int code) {
  out << "usage: mmu-lint [--root DIR] [--rules PREFIX[,PREFIX...]] [--fix-suggestions]\n"
         "                [--baseline FILE]\n"
         "       mmu-lint --callgraph-dump dot|json [--root DIR]\n"
         "       mmu-lint --list-rules\n"
         "\n"
         "Checks the ppcmm tree against its architectural contracts: include-DAG\n"
         "layering, determinism of simulated state, hot-path purity, counter-name\n"
         "consistency, and the interprocedural flush/purity/SMP/attribution analyses\n"
         "over the src/ call graph. See DESIGN.md sections 12 and 16.\n"
         "\n"
         "  --root DIR          repo root to scan (default: current directory)\n"
         "  --rules PREFIXES    only run rules whose ID starts with a prefix,\n"
         "                      e.g. --rules LAYER or --rules DET-RAND,DET-TIME\n"
         "  --fix-suggestions   print a one-line suggested fix under each diagnostic\n"
         "  --baseline FILE     accepted-findings file (`RULE-ID <file>  # reason` lines);\n"
         "                      default: <root>/tools/mmu-lint/baseline.txt when present.\n"
         "                      Stale entries are errors.\n"
         "  --callgraph-dump F  print the src/ call graph as dot or json and exit\n"
         "  --list-rules        print every rule ID with its description and exit\n"
         "\n"
         "Suppress a diagnostic with a comment on the same or previous line:\n"
         "  // mmu-lint-allow(DET-ITER-012): order provably cannot reach simulated state\n"
         "Function-level contract annotations (reason required):\n"
         "  // mmu-lint-deferred-flush(FLUSH-CONTRACT-029): <where the flush happens>\n"
         "  // mmu-lint-ambient(ATTR-COVER-032): <why this charge is user time>\n"
         "  // mmu-lint-hot(HOT-CLOSURE-030): <why this is a hot entry point>\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  mmulint::LintConfig config;
  config.root = ".";
  bool fix_suggestions = false;
  std::string callgraph_format;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return Usage(std::cout, 0);
    } else if (arg == "--list-rules") {
      for (const auto& [id, description] : mmulint::ListRules()) {
        std::cout << id << "  " << description << "\n";
      }
      return 0;
    } else if (arg == "--fix-suggestions") {
      fix_suggestions = true;
    } else if (arg == "--root" && i + 1 < argc) {
      config.root = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      config.baseline_path = argv[++i];
    } else if (arg == "--callgraph-dump" && i + 1 < argc) {
      callgraph_format = argv[++i];
    } else if (arg == "--rules" && i + 1 < argc) {
      std::stringstream ss(argv[++i]);
      std::string prefix;
      while (std::getline(ss, prefix, ',')) {
        if (!prefix.empty()) {
          config.rule_prefixes.push_back(prefix);
        }
      }
    } else {
      std::cerr << "mmu-lint: unknown argument '" << arg << "'\n";
      return Usage(std::cerr, 2);
    }
  }

  if (!callgraph_format.empty()) {
    std::vector<std::string> errors;
    const std::string dump = mmulint::DumpCallGraph(config, callgraph_format, &errors);
    for (const std::string& error : errors) {
      std::cerr << "mmu-lint: error: " << error << "\n";
    }
    if (!errors.empty()) {
      return 2;
    }
    std::cout << dump;
    return 0;
  }

  const mmulint::LintResult result = mmulint::RunLint(config);
  for (const std::string& error : result.errors) {
    std::cerr << "mmu-lint: error: " << error << "\n";
  }
  if (!result.errors.empty()) {
    return 2;
  }
  for (const mmulint::Diagnostic& d : result.diagnostics) {
    std::cout << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message << "\n";
    if (fix_suggestions && !d.fix.empty()) {
      std::cout << "    fix: " << d.fix << "\n";
    }
  }
  std::cout << "mmu-lint: " << result.files_scanned << " file(s) scanned, "
            << result.diagnostics.size() << " violation(s)\n";
  return result.diagnostics.empty() ? 0 : 1;
}
