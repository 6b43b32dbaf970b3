// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload kcompile|translate|mmap_churn|config_sweep|all --seed N
//             --seconds S --trace 0|1 [--tiny] [--out-dir DIR] [--source-id ID]
//
// One run = one untimed check round (cycle ledger on, cross-checks against the library's
// own workload functions, coherence audit), one warm-up round, then timed rounds until
// --seconds have passed, each run by Clients() concurrent copies whose throughputs add up.
// With --trace 0 the end-to-end metrics come from every timed round. With --trace 1 the
// rounds alternate untraced and traced; the traced ones record host-time spans around
// every library call (written to DIR at exit) and enable the cycle ledger, and the run
// reports per-layer metrics. For a single workload the last stdout line is the JSON result;
// the exit status is nonzero when any correctness check failed.

#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/tracer.h"
#include "perfbench/src/workloads.h"
#include "src/mmu/mmu.h"
#include "src/sim/attr.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".";
  std::string source_id = "unknown";
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

constexpr uint32_t kMinPlainRounds = 3;
constexpr uint32_t kMinTracedRounds = 2;

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Identifies the host and build a result came from, so results from different machines or
// builds are never compared silently. The CPU model comes from the "model name" line.
std::string Fingerprint(const Args& args) {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        model = line.substr(line.find_first_not_of(" \t", colon + 1));
      }
      break;
    }
  }
  utsname uts{};
  const std::string arch = uname(&uts) == 0 ? uts.machine : "unknown";
  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string host = arch + "/" + std::to_string(nproc) + "x " + model;
  return "{\"host\":" + JsonString(host) + ",\"cpu_model\":" + JsonString(model) +
         ",\"arch\":" + JsonString(arch) + ",\"nproc\":" + std::to_string(nproc) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + JsonString(std::string("gcc-compatible ") + __VERSION__) +
         ",\"source\":" + JsonString(args.source_id) +
         ",\"clients\":" + std::to_string(Clients()) + "}";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void AddKernelEntry(std::vector<Metric>& out, const Tracer& tracer, Layer layer,
                    double op_ns, double traced_ops) {
  const LayerStats& s = tracer.stats(layer);
  const std::string base = LayerName(layer);
  out.push_back({base + ".share", Ratio(static_cast<double>(s.self_ns), op_ns), "ratio"});
  out.push_back({base + ".calls", Ratio(static_cast<double>(s.calls), traced_ops), "count/op"});
  out.push_back({base + ".us_p50", s.PercentileUs(0.50), "us"});
  out.push_back({base + ".us_p90", s.PercentileUs(0.90), "us"});
}

struct LayerSamples {
  std::vector<double> ctor_ms;
  std::vector<double> dtor_ms;
  std::vector<double> wait_ms;
  double busy_s = 0;
  double thread_s = 0;  // wall time x threads, summed over sweep rounds
};

std::vector<Metric> PerLayerMetrics(const RoundStats& check, const Tracer& tracer,
                                    const LayerSamples& samples, double plain_rate,
                                    double traced_rate) {
  std::vector<Metric> out;
  const LayerStats& op = tracer.stats(Layer::kOp);
  const double op_ns = static_cast<double>(op.total_ns);
  const double traced_ops = static_cast<double>(op.calls);
  out.push_back({"core.system_ctor_ms", Median(samples.ctor_ms), "ms"});
  out.push_back({"core.system_dtor_ms", Median(samples.dtor_ms), "ms"});
  for (size_t i = static_cast<size_t>(Layer::kUserTouch);
       i <= static_cast<size_t>(Layer::kSwitchCpu); ++i) {
    AddKernelEntry(out, tracer, static_cast<Layer>(i), op_ns, traced_ops);
  }
  for (size_t i = static_cast<size_t>(Layer::kLmNullSyscall);
       i <= static_cast<size_t>(Layer::kLmProcessStart); ++i) {
    const Layer layer = static_cast<Layer>(i);
    out.push_back({std::string(LayerName(layer)) + ".share",
                   Ratio(static_cast<double>(tracer.stats(layer).self_ns), op_ns), "ratio"});
  }
  // Inside the ops on config_sweep; elsewhere Systems are built between rounds, and this is
  // their cost relative to the op time.
  const uint64_t system_ns =
      tracer.stats(Layer::kSystemCtor).self_ns + tracer.stats(Layer::kSystemDtor).self_ns;
  out.push_back({"core.system.share", Ratio(static_cast<double>(system_ns), op_ns), "ratio"});
  out.push_back({"bench.op_self.share", Ratio(static_cast<double>(op.self_ns), op_ns), "ratio"});
  out.push_back({"sim.sweep.parallel_efficiency", Ratio(samples.busy_s, samples.thread_s),
                 "ratio"});
  out.push_back({"sim.sweep.config_wait_ms_p50", Median(samples.wait_ms), "ms"});
  out.push_back({"trace.overhead", Ratio(plain_rate, traced_rate), "x"});

  const ppcmm::HwCounters& w = check.window;
  const double ops = static_cast<double>(check.ops);
  const auto per_op = [&](uint64_t count) { return Ratio(static_cast<double>(count), ops); };
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  const double accesses = d(check.Accesses());
  out.push_back({"mmu.itlb_miss_rate", Ratio(d(w.itlb_misses), d(w.itlb_accesses)), "ratio"});
  out.push_back({"mmu.dtlb_miss_rate", Ratio(d(w.dtlb_misses), d(w.dtlb_accesses)), "ratio"});
  out.push_back({"mmu.htab_hit_rate", Ratio(d(w.htab_hits), d(w.htab_searches)), "ratio"});
  out.push_back({"mmu.htab_evicts", per_op(w.htab_evicts), "count/op"});
  out.push_back({"mmu.htab_zombie_overwrites", per_op(w.htab_zombie_overwrites), "count/op"});
  out.push_back({"mmu.dirty_bit_updates", per_op(w.dirty_bit_updates), "count/op"});
  out.push_back({"mmu.span_access_share", Ratio(d(check.span_accesses), accesses), "ratio"});
  out.push_back({"mmu.fast_path_hit_rate",
                 Ratio(d(check.fast_hits), d(check.fast_hits + check.fast_misses)), "ratio"});
  out.push_back({"pagetable.page_faults", per_op(w.page_faults), "count/op"});
  out.push_back({"pagetable.pte_tree_walks", per_op(w.pte_tree_walks), "count/op"});
  out.push_back({"kernel.flush.page_flushes", per_op(w.tlb_page_flushes), "count/op"});
  out.push_back({"kernel.flush.context_flushes", per_op(w.tlb_context_flushes), "count/op"});
  out.push_back({"kernel.flush.htab_search_refs", per_op(w.htab_flush_memory_refs), "count/op"});
  out.push_back({"kernel.flush.shootdown_ipis", per_op(w.tlb_shootdown_ipis), "count/op"});
  out.push_back({"kernel.flush.shootdown_idle_skips", per_op(w.tlb_shootdown_idle_skips),
                 "count/op"});
  out.push_back({"kernel.idle.zombies_reclaimed", per_op(w.zombies_reclaimed), "count/op"});
  out.push_back({"kernel.idle.pages_zeroed", per_op(w.pages_zeroed_in_idle), "count/op"});
  const uint64_t page_requests = w.prezeroed_page_hits + w.pages_zeroed_on_demand;
  out.push_back({"kernel.idle.prezero_hit_rate",
                 Ratio(d(w.prezeroed_page_hits), d(page_requests)), "ratio"});
  for (size_t c = 0; c < check.attr.size(); ++c) {
    const auto cause = static_cast<ppcmm::AttrCause>(c);
    out.push_back({std::string("sim.attr.") + ppcmm::AttrCauseName(cause) + ".share",
                   Ratio(d(check.attr[c]), d(check.attributed)), "ratio"});
  }
  return out;
}

Outcome RunWorkload(const WorkloadDef& def, const Args& args, const std::string& fingerprint) {
  Outcome out;
  const Params params{.seed = args.seed, .tiny = args.tiny};
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
  const auto absorb = [&](const RoundStats& r, const std::string& what) {
    out.attempted += r.ops;
    out.failed += r.failed;
    if (!r.error.empty()) {
      out.errors.push_back(what + ": " + r.error);
    }
  };

  const RoundStats check = def.round(params, RoundOptions{.ledger = true, .check = true});
  absorb(check, "check round");
  if (check.end_states.empty() && out.errors.empty()) {
    out.errors.push_back("check round produced no end state");
  }
  if (check.attributed != check.window.cycles) {
    out.errors.push_back("cycle ledger attributed " + std::to_string(check.attributed) +
                         " cycles, the op window ran " + std::to_string(check.window.cycles));
  }

  // One copy of each round per client, each on its own thread with its own tracer. The
  // sweep spreads its configurations over the same number of threads itself.
  const unsigned copies = def.parallel ? 1 : Clients();
  Tracer tracer;
  // Throughputs of single copies of a round. A host CPU that briefly runs a copy much
  // faster or slower moves one sample, not the median.
  std::vector<double> rates, traced_rates, maccess, setups;
  uint32_t plain_rounds = 0;
  uint32_t traced_rounds = 0;
  LayerSamples layer_samples;
  for (uint32_t round = 0; out.errors.empty(); ++round) {
    // Round 0 warms the process up (allocator, caches) and only counts for the checks.
    const bool warmup = round == 0;
    const bool traced = args.trace && round % 2 == 0 && !warmup;
    const bool short_of_minimum =
        plain_rounds < kMinPlainRounds || (args.trace && traced_rounds < kMinTracedRounds);
    if (!warmup && !short_of_minimum && NowNs() >= deadline) {
      break;
    }
    std::vector<Tracer> tracers;
    for (unsigned c = 0; c < copies; ++c) {
      tracers.emplace_back(c + 1);
    }
    std::vector<RoundStats> copy_stats(copies);
    {
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < copies; ++c) {
        threads.emplace_back([&, c] {
          RoundOptions options;
          options.tracer = traced ? &tracers[c] : nullptr;
          options.ledger = traced;
          try {
            copy_stats[c] = def.round(params, options);
          } catch (const std::exception& e) {
            copy_stats[c].error = e.what();
          }
        });
      }
      for (std::thread& thread : threads) {
        thread.join();
      }
    }
    for (const RoundStats& r : copy_stats) {
      const std::string what = "round " + std::to_string(round);
      absorb(r, what);
      if (!r.error.empty()) {
        continue;
      }
      if (!SameCounterSets(r.end_states, check.end_states)) {
        out.errors.push_back(what + ": simulated counters differ from the check round's");
      } else if (traced && r.attributed != r.window.cycles) {
        out.errors.push_back(what + ": cycle ledger does not conserve the op window's cycles");
      }
      if (warmup) {
        continue;
      }
      const double rate = Ratio(static_cast<double>(r.ops), r.op_s);
      if (traced) {
        traced_rates.push_back(rate);
        continue;
      }
      rates.push_back(rate);
      maccess.push_back(Ratio(static_cast<double>(r.Accesses()), r.op_s) / 1e6);
      setups.push_back(r.setup_s);
      for (const double s : r.ctor_s) layer_samples.ctor_ms.push_back(s * 1e3);
      for (const double s : r.dtor_s) layer_samples.dtor_ms.push_back(s * 1e3);
      for (const double s : r.wait_s) layer_samples.wait_ms.push_back(s * 1e3);
      layer_samples.busy_s += r.busy_s;
      layer_samples.thread_s += r.op_s * r.threads;
    }
    if (warmup) {
      continue;
    }
    if (traced) {
      for (const Tracer& copy : tracers) {
        tracer.Merge(copy);
      }
      ++traced_rounds;
    } else {
      ++plain_rounds;
    }
  }

  // The clients run side by side, so their throughputs add up.
  out.end_to_end = {
      {"ops_per_s", Median(rates) * copies, "1/s"},
      {"maccess_per_s", Median(maccess) * copies, "Maccess/s"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"sim_cycles", static_cast<double>(check.window.cycles), "cycles"},
      {"failed_ops", Ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
       "ratio"},
  };
  if (args.trace) {
    out.per_layer = PerLayerMetrics(check, tracer, layer_samples, Median(rates),
                                    Median(traced_rates));
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/spans-" + def.name + ".json";
    if (tracer.WriteChromeTrace(path, fingerprint)) {
      std::printf("spans: %zu written to %s (%llu dropped past the cap)\n",
                  tracer.span_count(), path.c_str(),
                  static_cast<unsigned long long>(tracer.dropped_spans()));
    } else {
      out.errors.push_back("could not write " + path);
    }
  }
  std::printf("%s: %u timed rounds (%u traced), %llu ops attempted, %llu failed\n", def.name,
              plain_rounds + traced_rounds, traced_rounds,
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  if (!rates.empty()) {
    std::sort(rates.begin(), rates.end());
    std::printf("%s: ops/s of one untraced copy of a round: min %.6g median %.6g max %.6g\n",
                def.name, rates.front(), Median(rates), rates.back());
  }
  return out;
}

void PrintTable(const char* workload, const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s %s:\n", workload, title);
  for (const Metric& m : metrics) {
    std::printf("  %-44s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// Per-layer self time, largest first: where the host time inside ops went.
void PrintSelfTime(const char* workload, const std::vector<Metric>& per_layer) {
  std::vector<Metric> shares;
  for (const Metric& m : per_layer) {
    const bool host_share = m.name.ends_with(".share") && !m.name.starts_with("sim.attr.") &&
                            !m.name.starts_with("mmu.") && m.value > 0;
    if (host_share) {
      shares.push_back(m);
    }
  }
  std::sort(shares.begin(), shares.end(),
            [](const Metric& a, const Metric& b) { return a.value > b.value; });
  std::printf("%s host self time inside ops, by layer:\n", workload);
  for (const Metric& m : shares) {
    std::printf("  %-44s %6.2f%%\n", m.name.substr(0, m.name.size() - 6).c_str(),
                m.value * 100.0);
  }
}

std::string ResultJson(const Outcome& outcome, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": " + std::string(outcome.errors.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
            ": {\"value\": " + FormatNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return json + "}}";
}

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME|all --seed N --seconds S "
               "--trace 0|1 [--tiny] [--out-dir DIR] [--source-id ID]\n",
               problem.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      return Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return Usage("bad number for " + flag + ": " + value);
    }
  }
  if (!(args.seconds >= 0)) {
    return Usage("--seconds must be a non-negative number");
  }
  std::vector<const WorkloadDef*> selected;
  for (const WorkloadDef& def : kWorkloads) {
    if (args.workload == "all" || args.workload == def.name) {
      selected.push_back(&def);
    }
  }
  if (selected.empty()) {
    return Usage("unknown workload '" + args.workload + "'");
  }

  // The environment must not change the load: the fast path is pinned on here, and the
  // client count is fixed in Clients().
  ppcmm::Mmu::SetFastPathDefault(true);
  const std::string fingerprint = Fingerprint(args);
  std::printf("fingerprint %s\n", fingerprint.c_str());

  bool correct = true;
  Outcome last;
  for (const WorkloadDef* def : selected) {
    std::printf("== %s seed=%llu seconds=%g trace=%d%s\n", def->name,
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
                args.tiny ? " tiny" : "");
    std::fflush(stdout);
    last = RunWorkload(*def, args, fingerprint);
    PrintTable(def->name, "end to end", last.end_to_end);
    if (args.trace) {
      PrintTable(def->name, "per layer", last.per_layer);
      PrintSelfTime(def->name, last.per_layer);
    }
    for (const std::string& error : last.errors) {
      std::printf("%s CHECK FAILED: %s\n", def->name, error.c_str());
    }
    correct = correct && last.errors.empty();
  }
  if (selected.size() == 1) {
    std::vector<Metric> reported;
    if (args.trace) {
      reported = last.per_layer;
    } else {
      // failed_ops reaches the result as "failed"/"attempted", not as a metric.
      reported.assign(last.end_to_end.begin(), last.end_to_end.end() - 1);
    }
    std::printf("%s\n", ResultJson(last, reported).c_str());
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
