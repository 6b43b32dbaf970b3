// profile: run a Table 1/2/3 workload with cycle attribution enabled and explain where
// every simulated cycle went — per-cause tables, folded-stack flamegraph export, and an
// attr-diff mode that compares two configurations (or two saved profile JSONs) and prints
// the per-cause cycle delta. This is the tool that turns an ablation ("lazy flushing is
// 80x faster") into an explanation ("range_flush_eager cycles went away").
//
//   profile --workload table2                 profile the optimized column
//   profile --workload table2 --diff          diff the table's headline pair of columns
//   profile --preset baseline --vs all        diff two named fuzz presets (603-180)
//   profile --diff-files A.json B.json        diff two saved profiles
//   profile --out DIR                         also write profile_*.folded / .json
//
// Attribution is total by construction: every cycle lands in a cause cell (the base cell
// is "instruction"), and this binary verifies bit-exact conservation on every run.

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/attr/attr_export.h"
#include "src/verify/fuzz/differential.h"
#include "src/workloads/lmbench.h"

namespace ppcmm {
namespace {

struct RunSpec {
  std::string label;
  MachineConfig machine = MachineConfig::Ppc604(185);
  OptimizationConfig opts;
  LmBenchParams params;
};

struct RunResult {
  std::string label;
  uint64_t total = 0;
  std::map<std::string, uint64_t> causes;
  JsonValue json;
  std::string folded;
};

// Runs one LmBench suite pass with attribution on; dies if conservation is violated.
RunResult RunProfiled(const RunSpec& spec) {
  System system(spec.machine, spec.opts);
  CycleLedger& ledger = system.machine().attr();
  ledger.SetEnabled(true);
  const uint64_t start_cycles = system.machine().counters().cycles;
  LmBench suite(system, spec.params);
  suite.RunAll();
  const uint64_t window = system.machine().counters().cycles - start_cycles;

  uint64_t cell_sum = 0;
  for (const CycleLedger::Cell& cell : ledger.Cells()) {
    cell_sum += cell.cycles;
  }
  if (cell_sum != window || ledger.TotalAttributed() != window) {
    std::fprintf(stderr,
                 "conservation violated: cells=%" PRIu64 " ledger=%" PRIu64
                 " machine=%" PRIu64 "\n",
                 cell_sum, ledger.TotalAttributed(), window);
    std::exit(1);
  }

  RunResult result;
  result.label = spec.label;
  result.total = ledger.TotalAttributed();
  result.causes = AttrCauseTotals(ledger);
  result.json = AttrToJson(ledger);
  result.folded = AttrToFolded(ledger);
  AddAttrToBenchReport(BenchReport::Global(), "attr." + spec.label, ledger);
  return result;
}

void PrintTopCauses(const RunResult& run, size_t top) {
  std::vector<std::pair<std::string, uint64_t>> rows(run.causes.begin(), run.causes.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::printf("%s: %" PRIu64 " cycles, 100.00%% attributed (bit-exact)\n", run.label.c_str(),
              run.total);
  std::printf("  %-44s %16s %8s\n", "cause", "cycles", "share");
  for (size_t i = 0; i < rows.size() && i < top; ++i) {
    std::printf("  %-44s %16" PRIu64 " %7.2f%%\n", rows[i].first.c_str(), rows[i].second,
                100.0 * static_cast<double>(rows[i].second) /
                    static_cast<double>(run.total));
  }
  std::printf("\n");
}

std::string SanitizeLabel(std::string label) {
  for (char& c : label) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return label;
}

void WriteExports(const RunResult& run, const std::string& dir) {
  const std::string base = dir + "/profile_" + SanitizeLabel(run.label);
  std::ofstream folded(base + ".folded");
  folded << run.folded;
  std::ofstream json(base + ".json");
  json << run.json.Serialize() << "\n";
  std::printf("wrote %s.folded and %s.json\n", base.c_str(), base.c_str());
}

// The headline pair of columns for each table: the comparison the paper's table makes.
std::vector<RunSpec> TableSpecs(const std::string& workload) {
  OptimizationConfig all = OptimizationConfig::AllOptimizations();
  if (workload == "table1") {
    // Table 1: software HTAB search vs direct PTE-tree reload on the 603-180.
    OptimizationConfig with_htab = all;
    with_htab.no_htab_direct_reload = false;
    return {{"table1_603_htab", MachineConfig::Ppc603(180), with_htab, LmBenchParams{}},
            {"table1_603_no_htab", MachineConfig::Ppc603(180), all, LmBenchParams{}}};
  }
  if (workload == "table2") {
    // Table 2: eager per-page range flushing vs lazy context flushing on the 604-185.
    LmBenchParams params;
    params.mmap_pages = 1024;  // lat_mmap far beyond the 20-page cutoff
    params.mmap_iters = 8;
    return {{"table2_604_eager", MachineConfig::Ppc604(185),
             OptimizationConfig::AllButLazyFlush(), params},
            {"table2_604_lazy", MachineConfig::Ppc604(185), all, params}};
  }
  if (workload == "table3") {
    // Table 3: unoptimized vs optimized Linux/PPC on the 604-133.
    return {{"table3_604_baseline", MachineConfig::Ppc604(133),
             OptimizationConfig::Baseline(), LmBenchParams{}},
            {"table3_604_optimized", MachineConfig::Ppc604(133), all, LmBenchParams{}}};
  }
  std::fprintf(stderr, "unknown workload '%s' (want table1|table2|table3)\n",
               workload.c_str());
  std::exit(2);
}

int DiffFiles(const std::string& path_a, const std::string& path_b) {
  const auto load = [](const std::string& path) -> std::map<std::string, uint64_t> {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      std::exit(2);
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    const std::optional<JsonValue> doc = JsonValue::Parse(buffer.str(), &error);
    if (!doc.has_value()) {
      std::fprintf(stderr, "cannot parse %s: %s\n", path.c_str(), error.c_str());
      std::exit(2);
    }
    return AttrCauseTotalsFromJson(*doc);
  };
  const std::map<std::string, uint64_t> a = load(path_a);
  const std::map<std::string, uint64_t> b = load(path_b);
  std::printf("%s", AttrDiffReport(path_a, a, path_b, b).c_str());
  return 0;
}

int Usage() {
  std::printf(
      "usage: profile [--workload table1|table2|table3] [--diff] [--top N] [--out DIR]\n"
      "       profile --preset <name> --vs <name> [--workload ...] [--out DIR]\n"
      "       profile --diff-files A.json B.json\n"
      "       profile --list-presets\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload = "table2";
  std::string out_dir;
  std::string preset_a, preset_b, file_a, file_b;
  bool diff = false;
  size_t top = 12;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = next();
    } else if (arg == "--diff") {
      diff = true;
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--top") {
      top = static_cast<size_t>(std::stoul(next()));
    } else if (arg == "--preset") {
      preset_a = next();
    } else if (arg == "--vs") {
      preset_b = next();
    } else if (arg == "--diff-files") {
      file_a = next();
      file_b = next();
    } else if (arg == "--list-presets") {
      for (const FuzzPreset& preset : FuzzPresets()) {
        std::printf("%s\n", preset.name.c_str());
      }
      return 0;
    } else {
      return Usage();
    }
  }

  if (!file_a.empty()) {
    return DiffFiles(file_a, file_b);
  }

  std::vector<RunSpec> specs = TableSpecs(workload);
  if (!preset_a.empty() || !preset_b.empty()) {
    if (preset_a.empty() || preset_b.empty()) {
      return Usage();
    }
    // Preset mode: both presets on the 603-180 (software reload, so every strategy knob in
    // the preset is visible), with the chosen workload's iteration counts.
    const LmBenchParams params = specs[1].params;
    specs = {{preset_a, MachineConfig::Ppc603(180), FuzzPresetByName(preset_a).config,
              params},
             {preset_b, MachineConfig::Ppc603(180), FuzzPresetByName(preset_b).config,
              params}};
    diff = true;
  }

  const RunResult b = RunProfiled(specs[1]);
  BenchReport::Global().SetName("profile_" + workload);
  BenchReport::Global().SetMeta("workload", workload);
  BenchReport::Global().SetMeta("machine", specs[1].machine.name);
  BenchReport::Global().SetMeta("config", specs[1].label);

  if (diff) {
    const RunResult a = RunProfiled(specs[0]);
    PrintTopCauses(a, top);
    PrintTopCauses(b, top);
    std::printf("attr-diff (%s -> %s):\n%s", a.label.c_str(), b.label.c_str(),
                AttrDiffReport(a.label, a.causes, b.label, b.causes).c_str());
    if (!out_dir.empty()) {
      WriteExports(a, out_dir);
    }
  } else {
    PrintTopCauses(b, top);
  }
  if (!out_dir.empty()) {
    WriteExports(b, out_dir);
  }
  return 0;
}

}  // namespace
}  // namespace ppcmm

int main(int argc, char** argv) { return ppcmm::Main(argc, argv); }
