#include "src/verify/torture.h"

#include <sstream>
#include <utility>
#include <vector>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/obs/attr/attr_export.h"
#include "src/obs/metrics.h"
#include "src/obs/perfetto.h"
#include "src/sim/rng.h"
#include "src/sim/fault_injector.h"

namespace ppcmm {

const char* ReloadStrategyName(ReloadStrategy strategy) {
  switch (strategy) {
    case ReloadStrategy::kHardwareHtabWalk:
      return "hardware-htab-walk";
    case ReloadStrategy::kSoftwareHtab:
      return "software-htab";
    case ReloadStrategy::kSoftwareDirect:
      return "software-direct";
  }
  return "?";
}

namespace {

// What the harness believes one task has mapped (so it never touches outside a VMA, which
// the kernel treats as a fatal segfault rather than a recoverable condition).
struct TaskModel {
  TaskId id;
  // Recorded anonymous writable mmap() ranges: {start_page, page_count}.
  std::vector<std::pair<uint32_t, uint32_t>> maps;
};

// A touchable region of the current task.
struct Region {
  uint32_t start_page = 0;
  uint32_t pages = 0;
  bool writable = false;
};

constexpr uint32_t kTextPages = 16;
constexpr uint32_t kDataPages = 8;
constexpr uint32_t kStackPages = 4;

OptimizationConfig DrawConfig(Rng& rng, const TortureOptions& options) {
  OptimizationConfig config;
  if (options.randomize_config) {
    config.lazy_context_flush = rng.Chance(1, 2);
    const uint32_t cutoffs[] = {0, 8, 20};
    config.range_flush_cutoff =
        config.lazy_context_flush ? cutoffs[rng.NextBelow(3)] : 0;
    config.optimized_handlers = rng.Chance(1, 2);
    config.idle_zombie_reclaim = rng.Chance(1, 2);
    const IdleZeroPolicy policies[] = {IdleZeroPolicy::kOff, IdleZeroPolicy::kCached,
                                       IdleZeroPolicy::kUncachedNoList,
                                       IdleZeroPolicy::kUncachedWithList};
    config.idle_zero = policies[rng.NextBelow(4)];
    config.vsid_scatter = rng.Chance(1, 2) ? kDefaultVsidScatter : kNaiveVsidScatter;
    config.kernel_bat_mapping = rng.Chance(1, 2);
    config.uncached_page_tables = rng.Chance(1, 4);
  } else {
    config = OptimizationConfig::AllOptimizations();
  }
  config.no_htab_direct_reload = (options.strategy == ReloadStrategy::kSoftwareDirect);
  if (options.break_tlb_invalidate) {
    // The sabotage lives in the eager per-page flush path; force the kernel onto it.
    config.lazy_context_flush = false;
    config.range_flush_cutoff = 0;
  }
  return config;
}

MachineConfig DrawMachine(const TortureOptions& options) {
  MachineConfig machine = options.strategy == ReloadStrategy::kHardwareHtabWalk
                              ? MachineConfig::Ppc604(185)
                              : MachineConfig::Ppc603(80);
  if (options.ram_bytes != 0) {
    machine.ram_bytes = options.ram_bytes;
  }
  machine.ncpus = options.ncpus == 0 ? 1 : options.ncpus;
  return machine;
}

}  // namespace

TortureResult RunTorture(const TortureOptions& options) {
  TortureResult result;
  Rng rng(options.seed);

  const OptimizationConfig config = DrawConfig(rng, options);
  System sys(DrawMachine(options), config);
  Kernel& kernel = sys.kernel();
  result.config_desc = config.Describe();

  // The attribution ledger is the trace ring, the latency histograms and the failure
  // flight recorder: always on here, so any assertion leaves the last attributed events
  // behind (and every torture run re-proves that enabling it does not perturb the
  // simulation).
  sys.machine().attr().SetEnabled(true);
  MetricsRegistry registry(sys);
  // Exports the retained trace ring and a final metrics snapshot; run on every exit path so
  // even a failed run leaves machine-readable evidence.
  const auto export_obs = [&] {
    if (!options.capture_trace) {
      return;
    }
    PerfettoExportOptions popts;
    popts.clock_mhz = sys.machine_config().clock_mhz;
    kernel.ForEachTask(
        [&](Task& t) { popts.task_names.emplace_back(t.id.value, t.name); });
    result.trace_json = PerfettoTraceString(sys.machine().attr(), popts);
    result.metrics_json = registry.Snapshot().ToJson().Serialize();
  };

  FaultInjector injector(options.seed ^ 0xF417151EC7ULL);
  const std::pair<FaultClass, uint32_t> rates[] = {
      {FaultClass::kPageAllocExhaustion, options.page_alloc_exhaustion_one_in},
      {FaultClass::kHtabEvictionStorm, options.htab_eviction_storm_one_in},
      {FaultClass::kSpuriousTlbFlush, options.spurious_tlb_flush_one_in},
      {FaultClass::kVsidWrap, options.vsid_wrap_one_in},
      {FaultClass::kZombieFlood, options.zombie_flood_one_in},
  };
  for (const auto& [cls, one_in] : rates) {
    if (one_in != 0) {
      injector.Enable(cls, one_in);
    }
  }
  kernel.SetFaultInjector(&injector);
  if (options.break_tlb_invalidate) {
    kernel.flusher().TestOnlyBreakTlbInvalidate(true);
  }

  CoherenceAuditor auditor(kernel);
  auditor.SetPeriod(options.audit_period);

  std::vector<TaskModel> models;
  std::vector<std::string> trace;
  trace.reserve(options.ops);

  // Regions of the current task the harness may legally touch.
  const auto regions_of = [&](const TaskModel& model) {
    std::vector<Region> regions;
    regions.push_back({kUserTextBase >> kPageShift, kTextPages, false});
    regions.push_back({kUserDataBase >> kPageShift, kDataPages, true});
    regions.push_back({(kUserStackTop >> kPageShift) - kStackPages, kStackPages, true});
    for (const auto& [start, pages] : model.maps) {
      regions.push_back({start, pages, true});
    }
    return regions;
  };

  const auto pick_page = [&](const TaskModel& model, bool must_be_writable) {
    std::vector<Region> regions = regions_of(model);
    if (must_be_writable) {
      std::erase_if(regions, [](const Region& r) { return !r.writable; });
    }
    const Region& region = regions[rng.NextBelow(regions.size())];
    const uint32_t page = region.start_page + static_cast<uint32_t>(rng.NextBelow(region.pages));
    return EffAddr::FromPage(page, static_cast<uint32_t>(rng.NextBelow(kPageSize)));
  };

  const auto model_index_of = [&](TaskId id) {
    for (size_t i = 0; i < models.size(); ++i) {
      if (models[i].id == id) {
        return i;
      }
    }
    PPCMM_CHECK_MSG(false, "torture model lost track of task " << id.value);
    return size_t{0};
  };

  const auto running_elsewhere = [&](TaskId id) {
    for (uint32_t cpu = 0; cpu < kernel.ncpus(); ++cpu) {
      if (cpu != kernel.current_cpu() && kernel.CurrentOn(cpu) == id) {
        return true;
      }
    }
    return false;
  };

  // Per-CPU TLB snapshot for the failure report: which CPU held what when the check fired.
  // Entry dumps are capped — staleness bugs show in the first few entries plus the counts.
  const auto tlb_snapshot = [&] {
    std::ostringstream os;
    os << "per-CPU TLB snapshot:\n";
    for (uint32_t cpu = 0; cpu < kernel.ncpus(); ++cpu) {
      os << "  cpu " << cpu << (cpu == kernel.current_cpu() ? " (faulting)" : "")
         << ": task=" << kernel.CurrentOn(cpu).value
         << " flush_pending=" << (kernel.FlushPendingOn(cpu) ? 1 : 0)
         << " cycles=" << sys.machine().CpuCycles(cpu) << "\n";
      const auto dump_tlb = [&](const Tlb& tlb) {
        os << "    " << tlb.name() << ": " << tlb.ValidCount() << " valid ("
           << tlb.KernelEntryCount() << " kernel)\n";
        uint32_t shown = 0;
        tlb.ForEachValid([&](const TlbEntry& entry) {
          if (shown++ >= 8) {
            return;
          }
          os << "      vsid=0x" << std::hex << entry.vsid.value << " page=0x"
             << entry.page_index << " frame=0x" << entry.frame << std::dec
             << " w=" << entry.writable << " c=" << entry.changed
             << " k=" << entry.is_kernel << "\n";
        });
        if (shown > 8) {
          os << "      ... +" << (shown - 8) << " more\n";
        }
      };
      dump_tlb(kernel.mmu().itlb(cpu));
      dump_tlb(kernel.mmu().dtlb(cpu));
    }
    return os.str();
  };

  const auto fail = [&](uint32_t op_index, const std::string& what) {
    result.failed = true;
    std::ostringstream os;
    os << "torture failure: seed=" << options.seed << " strategy="
       << ReloadStrategyName(options.strategy) << " op=" << op_index << "/" << options.ops
       << " cpu=" << kernel.current_cpu() << "/" << kernel.ncpus()
       << "\nconfig: " << result.config_desc << "\n" << what << "\n"
       << tlb_snapshot() << "op trace (tail):\n";
    const size_t first = trace.size() > 40 ? trace.size() - 40 : 0;
    for (size_t i = first; i < trace.size(); ++i) {
      os << "  " << trace[i] << "\n";
    }
    if (options.capture_trace) {
      os << "metrics snapshot:\n" << registry.Snapshot().ToJson().Serialize() << "\n";
    }
    std::ostringstream replay;
    replay << "torture seed=" << options.seed << "; replay: examples/torture --seed "
           << options.seed << " --ops " << options.ops << " --strategy "
           << (options.strategy == ReloadStrategy::kHardwareHtabWalk ? "hw"
               : options.strategy == ReloadStrategy::kSoftwareHtab   ? "sw"
                                                                     : "direct");
    if (options.ncpus > 1) {
      replay << " --ncpus " << options.ncpus;
    }
    os << FlightRecorderDump(sys.machine().attr(), replay.str());
    result.failure_report = os.str();
  };

  try {
    ExecImage image;
    image.text_pages = kTextPages;
    image.data_pages = kDataPages;
    image.stack_pages = kStackPages;
    const TaskId init = kernel.CreateTask("torture-init");
    kernel.Exec(init, image);
    kernel.SwitchTo(init);
    models.push_back(TaskModel{init, {}});
  } catch (const CheckFailure& failure) {
    fail(0, failure.what());
    export_obs();
    return result;
  }

  for (uint32_t op = 0; op < options.ops && !result.failed; ++op) {
    // SMP: occasionally hop the execution spotlight to another CPU. These draws happen only
    // when ncpus > 1, so a uniprocessor run consumes the identical rng stream as before.
    if (options.ncpus > 1 && rng.Chance(1, 6)) {
      try {
        const uint32_t prev = kernel.current_cpu();
        const uint32_t target = static_cast<uint32_t>(rng.NextBelow(options.ncpus));
        trace.push_back("hop to cpu " + std::to_string(target));
        kernel.SwitchCpu(target);
        if (kernel.current().value == 0) {
          // The CPU is idle: put some task on it (one not running elsewhere), or hop back.
          bool scheduled = false;
          for (const TaskModel& model : models) {
            if (!running_elsewhere(model.id)) {
              kernel.SwitchTo(model.id);
              scheduled = true;
              break;
            }
          }
          if (!scheduled) {
            kernel.SwitchCpu(prev);
          }
        }
      } catch (const CheckFailure& failure) {
        fail(op, failure.what());
        break;
      }
    }
    TaskModel& cur = models[model_index_of(kernel.current())];
    const uint64_t dice = rng.NextBelow(100);
    std::ostringstream op_desc;
    op_desc << "op " << op << " [task " << cur.id.value << "]: ";
    try {
      if (dice < 35) {
        const EffAddr ea = pick_page(cur, /*must_be_writable=*/false);
        op_desc << "load 0x" << std::hex << ea.value;
        trace.push_back(op_desc.str());
        kernel.UserTouch(ea, AccessKind::kLoad);
      } else if (dice < 60) {
        const EffAddr ea = pick_page(cur, /*must_be_writable=*/true);
        op_desc << "store 0x" << std::hex << ea.value;
        trace.push_back(op_desc.str());
        kernel.UserTouch(ea, AccessKind::kStore);
      } else if (dice < 70) {
        const uint32_t pages = static_cast<uint32_t>(rng.NextInRange(1, 32));
        op_desc << "mmap " << pages << " pages";
        trace.push_back(op_desc.str());
        const uint32_t start = kernel.Mmap(pages);
        cur.maps.emplace_back(start, pages);
      } else if (dice < 77 && !cur.maps.empty()) {
        const size_t which = rng.NextBelow(cur.maps.size());
        const auto [start, pages] = cur.maps[which];
        op_desc << "munmap 0x" << std::hex << start << std::dec << "+" << pages;
        trace.push_back(op_desc.str());
        kernel.Munmap(start, pages);
        cur.maps.erase(cur.maps.begin() + static_cast<ptrdiff_t>(which));
      } else if (dice < 82 && models.size() < options.max_tasks) {
        op_desc << "fork";
        trace.push_back(op_desc.str());
        const TaskId child = kernel.Fork(cur.id);
        models.push_back(TaskModel{child, cur.maps});
      } else if (dice < 85) {
        op_desc << "exec";
        trace.push_back(op_desc.str());
        ExecImage image;
        image.text_pages = kTextPages;
        image.data_pages = kDataPages;
        image.stack_pages = kStackPages;
        kernel.Exec(cur.id, image);
        cur.maps.clear();
      } else if (dice < 88 && models.size() > 1) {
        size_t victim = rng.NextBelow(models.size());
        if (models[victim].id == kernel.current()) {
          victim = (victim + 1) % models.size();
        }
        op_desc << "exit task " << models[victim].id.value;
        trace.push_back(op_desc.str());
        kernel.Exit(models[victim].id);
        models.erase(models.begin() + static_cast<ptrdiff_t>(victim));
      } else if (dice < 94) {
        const TaskModel& next = models[rng.NextBelow(models.size())];
        if (running_elsewhere(next.id)) {
          // SMP: the task is current on another CPU; switching it in here would double-run
          // it. Never taken at ncpus=1.
          op_desc << "switch to task " << next.id.value << " skipped (busy on another cpu)";
          trace.push_back(op_desc.str());
        } else {
          op_desc << "switch to task " << next.id.value;
          trace.push_back(op_desc.str());
          kernel.SwitchTo(next.id);
        }
      } else {
        const uint32_t budget = static_cast<uint32_t>(rng.NextInRange(500, 5000));
        op_desc << "idle " << budget << " cycles";
        trace.push_back(op_desc.str());
        kernel.RunIdle(Cycles(budget));
      }
      ++result.ops_executed;
      auditor.NoteEvent();
    } catch (const OutOfMemoryError&) {
      // Expected under exhaustion (injected or genuine): recover by giving memory back —
      // drop one of the current task's mappings, else kill another task — and keep going.
      ++result.oom_events;
      trace.push_back("  -> out of memory; recovering");
      try {
        TaskModel& again = models[model_index_of(kernel.current())];
        if (!again.maps.empty()) {
          const auto [start, pages] = again.maps.back();
          kernel.Munmap(start, pages);
          again.maps.pop_back();
        } else if (models.size() > 1) {
          size_t victim = models[0].id == kernel.current() ? 1 : 0;
          kernel.Exit(models[victim].id);
          models.erase(models.begin() + static_cast<ptrdiff_t>(victim));
        }
      } catch (const OutOfMemoryError&) {
        // Even the recovery path hit the wall; the next iteration will try again.
      } catch (const CheckFailure& failure) {
        fail(op, failure.what());
      }
    } catch (const CheckFailure& failure) {
      fail(op, failure.what());
    }
  }

  if (!result.failed) {
    try {
      auditor.Audit();
    } catch (const CheckFailure& failure) {
      fail(options.ops, failure.what());
    }
  }

  kernel.SetFaultInjector(nullptr);
  result.fault_fires = injector.TotalFires();
  result.audit_stats = auditor.stats();
  export_obs();
  return result;
}

}  // namespace ppcmm
