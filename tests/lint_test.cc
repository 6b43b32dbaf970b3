// mmu-lint against its fixture corpus and the real tree.
//
// Every rule ID must fire on its fixture at the exact file:line the fixture stages, the
// suppression and scope escapes must stay quiet, the clean fixture must pass every rule,
// and the real tree must lint clean. The exact-match assertions are the point: removing a
// staged violation from a fixture (or a rule from the checker) turns this red.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "tools/mmu-lint/lint.h"

namespace {

struct Expected {
  std::string file;
  uint32_t line;
  std::string rule;
};

mmulint::LintResult RunFixture(const std::string& fixture, const std::string& rules) {
  mmulint::LintConfig config;
  config.root = std::string(PPCMM_LINT_FIXTURES) + "/" + fixture;
  if (!rules.empty()) {
    config.rule_prefixes.push_back(rules);
  }
  return mmulint::RunLint(config);
}

// Asserts result holds exactly `expected` (order-insensitively on the expectation side;
// diagnostics themselves arrive sorted by file/line/rule).
void ExpectExactly(const mmulint::LintResult& result, std::vector<Expected> expected) {
  for (const std::string& error : result.errors) {
    ADD_FAILURE() << "lint error: " << error;
  }
  std::sort(expected.begin(), expected.end(), [](const Expected& a, const Expected& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  ASSERT_EQ(result.diagnostics.size(), expected.size()) << [&] {
    std::string got;
    for (const auto& d : result.diagnostics) {
      got += "  " + d.file + ":" + std::to_string(d.line) + " [" + d.rule + "]\n";
    }
    return "diagnostics were:\n" + got;
  }();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.diagnostics[i].file, expected[i].file) << "diagnostic " << i;
    EXPECT_EQ(result.diagnostics[i].line, expected[i].line) << "diagnostic " << i;
    EXPECT_EQ(result.diagnostics[i].rule, expected[i].rule) << "diagnostic " << i;
  }
}

TEST(MmuLintFixtures, LayeringRulesFireAtStagedLines) {
  // sched2.h stages the same upward include as sched.h under a mmu-lint-allow comment, so
  // its absence below is itself an assertion.
  ExpectExactly(RunFixture("layering", "LAYER"),
                {
                    {"src/kernel/sched.h", 2, "LAYER-DAG-001"},
                    {"src/mmu/tlb.h", 2, "LAYER-DAG-001"},
                    {"src/sim/trace2.h", 3, "LAYER-DAG-001"},
                    {"src/sim/trace2.h", 3, "LAYER-HOT-OBS-003"},
                    {"src/verify/fuzz/ref_util.h", 4, "LAYER-ORACLE-002"},
                });
}

TEST(MmuLintFixtures, OracleViolationNamesTheIncludeChain) {
  const mmulint::LintResult result = RunFixture("layering", "LAYER-ORACLE");
  ASSERT_EQ(result.diagnostics.size(), 1u);
  // The contamination is two hops from the root; the diagnostic must show the path.
  EXPECT_NE(result.diagnostics[0].message.find(
                "src/verify/fuzz/reference_tlb.h -> src/verify/fuzz/ref_util.h"),
            std::string::npos)
      << result.diagnostics[0].message;
}

TEST(MmuLintFixtures, DeterminismRulesFireAtStagedLines) {
  // rng.h (allowlisted), the suppressed srand, and the rand() in tests/ must all stay
  // quiet; the cross-file unordered iteration (declared in table.h, walked in table.cc)
  // must not.
  ExpectExactly(RunFixture("determinism", "DET"),
                {
                    {"src/kernel/table.cc", 4, "DET-ITER-012"},
                    {"src/kernel/table.cc", 10, "DET-ITER-012"},
                    {"src/sim/clocks.cc", 5, "DET-TIME-011"},
                    {"src/sim/clocks.cc", 6, "DET-RAND-010"},
                });
}

TEST(MmuLintFixtures, ThreadBanExemptsOnlyTheSweepPool) {
  // The sweep-pool twin may name threads and locks, but its rand() still fires: the
  // exemption lifts DET-THREAD-013 alone, and only from src/sim/sweep_runner.{h,cc}.
  ExpectExactly(RunFixture("threads", "DET"),
                {
                    {"src/sim/sweep_runner.h", 8, "DET-RAND-010"},
                    {"src/workloads/fibers.cc", 2, "DET-THREAD-013"},
                    {"src/workloads/fibers.cc", 3, "DET-THREAD-013"},
                    {"src/workloads/fibers.cc", 5, "DET-THREAD-013"},
                    {"src/workloads/fibers.cc", 6, "DET-THREAD-013"},
                });
}

TEST(MmuLintFixtures, HotPathRulesFireAtStagedLines) {
  // The marked roots carry one per-body ban each; FixtureCache::TouchLine and Mmu::Reload
  // carry no marker, so their findings come through the closure. The allowed MarkPteDirty
  // in Reload, and the allocation in the unreachable Grow, must stay quiet; the stray and
  // the reason-less markers must not.
  ExpectExactly(RunFixture("hotpath", "HOT"),
                {
                    {"src/mmu/bat.h", 5, "HOT-ATTR-026"},
                    {"src/mmu/bat.h", 7, "HOT-ATTR-026"},
                    {"src/mmu/mmu.cc", 9, "HOT-THROW-021"},
                    {"src/mmu/mmu.cc", 11, "HOT-LOCK-022"},
                    {"src/mmu/mmu.cc", 12, "HOT-IO-023"},
                    {"src/mmu/mmu.cc", 17, "HOT-VIRT-024"},
                    {"src/sim/cache.h", 6, "HOT-CLOSURE-030"},
                    {"src/sim/machine.h", 7, "HOT-MISSING-025"},
                    {"src/sim/machine.h", 11, "HOT-ALLOC-020"},
                    {"src/sim/machine.h", 14, "HOT-CLOSURE-030"},
                });
}

TEST(MmuLintFixtures, SpanValidityRulesFireAtStagedLines) {
  // ReplaySpan in the hotpath fixture stages both forbidden span-validity inputs: pointer
  // identity (reinterpret_cast) and wall-clock time (clock_gettime). The same cast in
  // mmu.h, outside any marked root, must stay quiet.
  ExpectExactly(RunFixture("hotpath", "SPAN"),
                {
                    {"src/mmu/mmu.cc", 22, "SPAN-GEN-027"},
                    {"src/mmu/mmu.cc", 24, "SPAN-GEN-027"},
                });
}

TEST(MmuLintFixtures, SmpIpiRuleFiresAtStagedLines) {
  // vma.cc stages both direct cross-CPU invalidation primitives outside the flush engine.
  // The allowlisted definition (mmu.h) and IPI path (flush.cc), the suppressed call in
  // vma2.cc, and the out-of-scope probe under tests/ must all stay quiet.
  ExpectExactly(RunFixture("smp", "SMP"),
                {
                    {"src/kernel/vma.cc", 6, "SMP-IPI-028"},
                    {"src/kernel/vma.cc", 8, "SMP-IPI-028"},
                });
}

TEST(MmuLintFixtures, FlushContractFiresAtStagedLines) {
  // ZapFlushed (same-body tlbie), ZapVia (flush one call-graph hop down) and ZapDeferred
  // (annotated with a reason) must all stay quiet; the bare insert and the reason-less
  // marker must not.
  ExpectExactly(RunFixture("flushcontract", "FLUSH"),
                {
                    {"src/mmu/zapper.cc", 7, "FLUSH-CONTRACT-029"},
                    {"src/mmu/zapper.cc", 35, "FLUSH-CONTRACT-029"},
                    {"src/mmu/zapper.cc", 36, "FLUSH-CONTRACT-029"},
                });
}

TEST(MmuLintFixtures, FlushContractSuggestsNearestPrimitive) {
  // The fix line is part of the contract: it must name the concrete flush primitive for
  // the mutated structure, not a generic "add a flush".
  const mmulint::LintResult result = RunFixture("flushcontract", "FLUSH");
  bool found = false;
  for (const auto& d : result.diagnostics) {
    if (d.file == "src/mmu/zapper.cc" && d.line == 7) {
      found = true;
      EXPECT_EQ(d.fix,
                "invalidate the displaced translation via Mmu::TlbInvalidatePage (tlbie) "
                "or route the update through FlushEngine (src/kernel/flush.cc)");
    }
  }
  EXPECT_TRUE(found) << "staged ZapOne violation missing";
}

TEST(MmuLintFixtures, HotClosureFiresWithWitnessPath) {
  // Grow carries no marker but is reachable from the marked root Tlb::LookupPtr, so its
  // allocation fires; DebugDump allocates too but is unreachable and must stay quiet.
  const mmulint::LintResult result = RunFixture("hotclosure", "HOT-CLOSURE");
  ExpectExactly(result, {{"src/mmu/tlb.h", 14, "HOT-CLOSURE-030"}});
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_NE(result.diagnostics[0].message.find("Tlb::LookupPtr -> Tlb::Grow"),
            std::string::npos)
      << result.diagnostics[0].message;
}

TEST(MmuLintFixtures, SmpConfineFiresAtStagedLines) {
  // The argless itlb() spotlight view and the registered ShootdownRound gateway must stay
  // quiet; the remote charge and the per-CPU accessor outside a gateway must not.
  ExpectExactly(RunFixture("smpconfine", "SMP-CONFINE"),
                {
                    {"src/kernel/flush2.cc", 7, "SMP-CONFINE-031"},
                    {"src/kernel/flush2.cc", 12, "SMP-CONFINE-031"},
                });
}

TEST(MmuLintFixtures, AttrCoverFiresAtStagedLines) {
  // Mmap (scope before charge and call), ChargeBody (only entered scoped) and UserExecute
  // (ambient with a reason) must stay quiet; the unscoped entry point, the transitively
  // unscoped helper, and the reason-less ambient marker must not.
  const mmulint::LintResult result = RunFixture("attrcover", "ATTR");
  ExpectExactly(result,
                {
                    {"src/kernel/syscalls.cc", 8, "ATTR-COVER-032"},
                    {"src/kernel/syscalls.cc", 30, "ATTR-COVER-032"},
                    {"src/kernel/syscalls.cc", 41, "ATTR-COVER-032"},
                });
  // The transitive finding must name the entry point the unattributed path starts at.
  for (const auto& d : result.diagnostics) {
    if (d.line == 30) {
      EXPECT_NE(d.message.find("unattributed path from Kernel::CreatePipe"),
                std::string::npos)
          << d.message;
    }
  }
}

TEST(MmuLintCallGraph, FixtureGraphHasExpectedShapes) {
  mmulint::LintConfig config;
  config.root = std::string(PPCMM_LINT_FIXTURES) + "/callgraph";
  std::vector<std::string> errors;
  const std::string json = mmulint::DumpCallGraph(config, "json", &errors);
  for (const std::string& error : errors) {
    ADD_FAILURE() << "dump error: " << error;
  }
  const auto has = [&](const std::string& needle) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing: " << needle << "\n" << json;
  };
  // Overloads merge into one node with two defs…
  has("\"id\": \"Widget::Spin\",\n      \"class\": \"Widget\",\n      \"name\": \"Spin\",\n"
      "      \"defs\": 2");
  // …and the zero-arg overload's call to its sibling lands on the merged node.
  has("{\"callee\": \"Widget::Spin\", \"line\": 14, \"kind\": \"same-class\"}");
  // Receiver type inferred from a `Widget&` parameter, not the member table.
  has("{\"callee\": \"Widget::Spin\", \"line\": 37, \"kind\": \"member\"}");
  // Direct recursion is a self-edge.
  has("{\"callee\": \"Widget::Unwind\", \"line\": 32, \"kind\": \"same-class\"}");
  // A two-function cycle survives, resolved by unique global name.
  has("{\"callee\": \"PongStage\", \"line\": 43, \"kind\": \"unique\"}");
  has("{\"callee\": \"PingStage\", \"line\": 49, \"kind\": \"unique\"}");
  // Explicit template arguments between the name and the parentheses still make a call.
  has("{\"callee\": \"Crank\", \"line\": 60, \"kind\": \"unique\"}");
  // Taking a function's address is an edge: the pointer is called later.
  has("{\"callee\": \"Settle\", \"line\": 69, \"kind\": \"unique\"}");
  // A receiver typed by its `Widget*` data-member declaration in the class body.
  has("{\"callee\": \"Widget::Spin\", \"line\": 83, \"kind\": \"member\"}");

  // The DOT form renders the same graph for the CI artifact; spot-check an edge.
  const std::string dot = mmulint::DumpCallGraph(config, "dot", &errors);
  EXPECT_NE(dot.find("\"PingStage\" -> \"PongStage\""), std::string::npos) << dot;

  // Unknown formats are an error, not silent empty output.
  std::vector<std::string> bad_errors;
  EXPECT_TRUE(mmulint::DumpCallGraph(config, "xml", &bad_errors).empty());
  EXPECT_EQ(bad_errors.size(), 1u);
}

TEST(MmuLintBaseline, AutoBaselineSuppressesAcceptedFindings) {
  // The fixture's tools/mmu-lint/baseline.txt accepts the staged unflushed write, so the
  // tree lints clean with no --baseline flag at all.
  ExpectExactly(RunFixture("baseline", "FLUSH"), {});
}

TEST(MmuLintBaseline, StaleAndMalformedEntriesAreErrors) {
  mmulint::LintConfig config;
  config.root = std::string(PPCMM_LINT_FIXTURES) + "/baseline";
  config.rule_prefixes.push_back("FLUSH");
  config.baseline_path = std::string(PPCMM_LINT_FIXTURES) + "/baseline/stale.txt";
  const mmulint::LintResult result = mmulint::RunLint(config);
  // The explicit baseline matches nothing, so the staged finding comes back…
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].file, "src/mmu/writer.cc");
  EXPECT_EQ(result.diagnostics[0].rule, "FLUSH-CONTRACT-029");
  // …and both the stale entry and the malformed one are hard errors.
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_NE(result.errors[0].find("malformed baseline entry"), std::string::npos)
      << result.errors[0];
  EXPECT_NE(result.errors[1].find("stale baseline entry"), std::string::npos)
      << result.errors[1];
}

TEST(MmuLintFixtures, CounterRulesFireAtStagedLines) {
  // The fixture's tiny X-macro list is the source of truth, so the real tree's
  // hw.htab_hits must be flagged here; the markdown suppression must hold.
  ExpectExactly(RunFixture("counters", "CNT"),
                {
                    {"EXPERIMENTS.md", 3, "CNT-REF-030"},
                    {"src/obs/metrics.cc", 1, "CNT-FOREACH-031"},
                    {"src/obs/metrics.cc", 1, "CNT-SYS-034"},
                    {"tests/report_test.cc", 4, "CNT-REF-030"},
                    {"tests/report_test.cc", 6, "CNT-LAT-032"},
                    {"tests/report_test.cc", 8, "CNT-SYS-034"},
                    {"tests/report_test.cc", 9, "CNT-LAT-032"},
                    {"tests/report_test.cc", 10, "CNT-LAT-032"},
                    {"tests/report_test.cc", 11, "CNT-LAT-032"},
                });
}

TEST(MmuLintFixtures, LatencyNamesComeFromTheCauseTable) {
  // lat.<cause> names come from AttrCauseName alone: a cause passes, while a retired probe
  // name, an instant kind named elsewhere in attr.cc and the "invalid" fallback are flagged.
  const mmulint::LintResult result = RunFixture("counters", "CNT-LAT-032");
  std::set<uint32_t> lines;
  for (const mmulint::Diagnostic& d : result.diagnostics) {
    EXPECT_EQ(d.file, "tests/report_test.cc");
    lines.insert(d.line);
  }
  EXPECT_EQ(lines.count(5), 0u) << "lat.fault_anon.p99 names a real cause";
  EXPECT_EQ(lines, (std::set<uint32_t>{6, 9, 10, 11}));
}

TEST(MmuLintFixtures, EmptyXMacroListIsItselfAViolation) {
  ExpectExactly(RunFixture("xmacro", "CNT"), {{"src/sim/hw_counters.h", 1, "CNT-XMACRO-033"}});
}

TEST(MmuLintFixtures, CleanFixturePassesEveryRule) {
  const mmulint::LintResult result = RunFixture("clean", "");
  ExpectExactly(result, {});
  EXPECT_GE(result.files_scanned, 19u);
}

TEST(MmuLintFixtures, RuleFilterLimitsWhatFires) {
  // Same hotpath fixture, but only the allocation rule enabled: the root's allocation
  // fires, while the closure's (HOT-CLOSURE-030) stays out.
  ExpectExactly(RunFixture("hotpath", "HOT-ALLOC"), {{"src/sim/machine.h", 11, "HOT-ALLOC-020"}});
}

TEST(MmuLintFixtures, EveryListedRuleIsExercisedByAFixture) {
  // The rule registry and the fixture corpus must not drift apart: every rule mmu-lint
  // advertises fires in at least one fixture above (rules are also each asserted at exact
  // lines; this test catches a NEW rule added without fixture coverage).
  std::set<std::string> fired;
  for (const char* fixture : {"layering", "determinism", "hotpath", "smp", "counters",
                              "xmacro", "flushcontract", "hotclosure", "smpconfine",
                              "attrcover", "threads"}) {
    for (const auto& d : RunFixture(fixture, "").diagnostics) {
      fired.insert(d.rule);
    }
  }
  for (const auto& [id, description] : mmulint::ListRules()) {
    EXPECT_TRUE(fired.count(id) != 0) << "rule " << id << " (" << description
                                      << ") fires in no fixture";
  }
}

TEST(MmuLintRealTree, LintsClean) {
  mmulint::LintConfig config;
  config.root = PPCMM_LINT_REPO_ROOT;
  const mmulint::LintResult result = mmulint::RunLint(config);
  for (const std::string& error : result.errors) {
    ADD_FAILURE() << "lint error: " << error;
  }
  for (const auto& d : result.diagnostics) {
    ADD_FAILURE() << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message;
  }
  // A shrunken scan (wrong root, broken walk) must not pass as "clean".
  EXPECT_GE(result.files_scanned, 100u);
}

}  // namespace
