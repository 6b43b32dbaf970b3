// Table 2 — "LmBench summary for tunable TLB range flushing".
//
// Columns: 603-133 eager, 603-133 lazy, 604-185 eager, 604-185 tuned (lazy + 20-page
// cutoff). Rows: mmap latency, ctxsw, pipe latency, pipe bandwidth, file reread. The 80x
// mmap() improvement of §7 is the headline; a cutoff sweep (the tunable) follows.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/workloads/lmbench.h"
#include "src/workloads/report.h"

namespace ppcmm {
namespace {

int Main() {
  // The flushing strategy is the variable; handlers/BATs/scatter stay optimized so the
  // flush cost is isolated, per the paper's one-at-a-time methodology.
  OptimizationConfig eager = OptimizationConfig::AllButLazyFlush();
  OptimizationConfig lazy = OptimizationConfig::AllOptimizations();
  // "Table 2 shows the 603 doing software searches of the hash table" (§7): the 603 columns
  // keep the HTAB, so the flush strategies act on it exactly as on the 604.
  eager.no_htab_direct_reload = false;
  lazy.no_htab_direct_reload = false;

  struct Column {
    std::string name;
    MachineConfig machine;
    OptimizationConfig opts;
    double paper_mmap, paper_ctxsw, paper_pipe_lat, paper_pipe_bw, paper_reread;
  };
  std::vector<Column> columns = {
      {"603 133MHz", MachineConfig::Ppc603(133), eager, 3240, 6, 34, 52, 26},
      {"603 133MHz (lazy)", MachineConfig::Ppc603(133), lazy, 41, 6, 28, 57, 32},
      {"604 185MHz", MachineConfig::Ppc604(185), eager, 2733, 4, 22, 90, 38},
      {"604 185MHz (tune)", MachineConfig::Ppc604(185), lazy, 33, 4, 21, 94, 41},
  };

  // lat_mmap over a multi-megabyte file: flushed ranges far beyond the 20-page cutoff.
  LmBenchParams params;
  params.mmap_pages = 1024;  // 4 MB map, lat_mmap style
  params.mmap_iters = 8;

  Headline("Table 2: LmBench summary for tunable TLB range flushing");
  BenchReport::Global().SetMeta("table", "2");
  BenchReport::Global().SetMeta("machines", "603-133, 603-133 lazy, 604-185, 604-185 tune");
  BenchReport::Global().SetMeta("workload", "lat_mmap 1024 pages x 8 iters");
  TextTable table({"metric", "603-133", "603-133 lazy", "604-185", "604-185 tune"});
  std::vector<LmBenchResult> results;
  for (const Column& column : columns) {
    System system(column.machine, column.opts);
    LmBench suite(system, params);
    results.push_back(suite.RunAll());
  }
  auto row = [&](const char* name, auto extract, auto format) {
    std::vector<std::string> cells = {name};
    for (const LmBenchResult& r : results) {
      cells.push_back(format(extract(r)));
    }
    table.AddRow(cells);
  };
  row("mmap latency", [](const LmBenchResult& r) { return r.mmap_latency_us; },
      TextTable::Us);
  row("ctxsw (2p)", [](const LmBenchResult& r) { return r.ctxsw_2p_us; }, TextTable::Us);
  row("ctxsw (8p)", [](const LmBenchResult& r) { return r.ctxsw_8p_us; }, TextTable::Us);
  row("pipe latency", [](const LmBenchResult& r) { return r.pipe_latency_us; },
      TextTable::Us);
  row("pipe bandwidth", [](const LmBenchResult& r) { return r.pipe_bandwidth_mbs; },
      TextTable::Mbs);
  row("file reread", [](const LmBenchResult& r) { return r.file_reread_mbs; },
      TextTable::Mbs);
  std::printf("%s\n", table.ToString().c_str());

  Headline("Paper vs measured");
  for (size_t i = 0; i < columns.size(); ++i) {
    std::printf("%s\n", columns[i].name.c_str());
    PaperVsMeasured("mmap latency", columns[i].paper_mmap, results[i].mmap_latency_us, "us");
    PaperVsMeasured("pipe latency", columns[i].paper_pipe_lat, results[i].pipe_latency_us,
                    "us");
    PaperVsMeasured("pipe bandwidth", columns[i].paper_pipe_bw, results[i].pipe_bandwidth_mbs,
                    "MB/s");
  }
  const double improvement_603 = results[0].mmap_latency_us / results[1].mmap_latency_us;
  const double improvement_604 = results[2].mmap_latency_us / results[3].mmap_latency_us;
  std::printf("\nmmap() improvement from lazy flushing: 603 %.0fx, 604 %.0fx (paper: ~80x)\n",
              improvement_603, improvement_604);
  BenchReport::Global().AddComparison("mmap improvement 603 (lazy/eager)", 80.0,
                                      improvement_603, "x");
  BenchReport::Global().AddComparison("mmap improvement 604 (lazy/eager)", 80.0,
                                      improvement_604, "x");

  // §7's tunable: sweep the range-flush cutoff. Below the map size the whole-context flush
  // kicks in and latency collapses; with the cutoff disabled (0) flushing is per-page.
  Headline("Cutoff sweep (604 185MHz, 64-page maps): the tunable of section 7");
  TextTable sweep({"cutoff (pages)", "mmap latency", "context flushes", "page flushes"});
  for (const uint32_t cutoff : {0u, 10u, 20u, 40u, 63u, 128u}) {
    OptimizationConfig config = OptimizationConfig::AllOptimizations();
    config.range_flush_cutoff = cutoff;
    config.lazy_context_flush = true;
    System system(MachineConfig::Ppc604(185), config);
    LmBenchParams p;
    p.mmap_pages = 64;
    p.mmap_iters = 10;
    LmBench suite(system, p);
    const HwCounters before = system.counters();
    const double mmap_us = suite.MmapLatencyUs();
    const HwCounters delta = system.counters().Diff(before);
    sweep.AddRow({cutoff == 0 ? "off (per-page)" : std::to_string(cutoff),
                  TextTable::Us(mmap_us), TextTable::Count(delta.tlb_context_flushes),
                  TextTable::Count(delta.tlb_page_flushes)});
    const std::string prefix = "cutoff_" + std::to_string(cutoff);
    BenchReport::Global().Add(prefix + ".mmap_latency", mmap_us, "us");
    BenchReport::Global().AddCounters(prefix, delta);
  }
  std::printf("%s\n", sweep.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace ppcmm

int main() { return ppcmm::Main(); }
