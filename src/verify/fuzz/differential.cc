#include "src/verify/fuzz/differential.h"

#include <deque>
#include <sstream>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/obs/attr/attr_export.h"
#include "src/sim/check.h"
#include "src/verify/coherence_auditor.h"
#include "src/verify/fuzz/reference_mmu.h"
#include "src/verify/torture.h"

namespace ppcmm {

namespace {

constexpr uint32_t kKernelBasePage = kKernelVirtualBase >> kPageShift;

// One line of the failure report's trailing op trace.
std::string OpLine(uint32_t index, const FuzzOp& op) {
  std::ostringstream oss;
  oss << index << ": " << FuzzOpName(op.kind) << " " << op.a << " " << op.b << " " << op.c;
  return oss.str();
}

// Executes one planned step against the real kernel and asserts the oracle's expectations.
void ApplyAndCheck(System& sys, const ExpectedStep& step) {
  Kernel& kernel = sys.kernel();
  switch (step.kind) {
    case FuzzOpKind::kTouch:
    case FuzzOpKind::kFbTouch: {
      Task& cur = kernel.task(kernel.current());
      const uint64_t pf0 = cur.obs.page_faults;
      const uint64_t cf0 = cur.obs.cow_faults;
      kernel.UserTouch(EffAddr::FromPage(step.page, step.offset), step.access);
      PPCMM_CHECK_MSG(cur.obs.page_faults - pf0 == step.expect_page_faults,
                      "page-fault count diverged on page 0x"
                          << std::hex << step.page << std::dec << ": kernel took "
                          << (cur.obs.page_faults - pf0) << ", oracle expected "
                          << step.expect_page_faults);
      PPCMM_CHECK_MSG(cur.obs.cow_faults - cf0 == step.expect_cow_faults,
                      "COW-fault count diverged on page 0x"
                          << std::hex << step.page << std::dec << ": kernel took "
                          << (cur.obs.cow_faults - cf0) << ", oracle expected "
                          << step.expect_cow_faults);
      const EffAddr token_ea = EffAddr::FromPage(step.page);
      const auto pa = sys.mmu().Probe(token_ea, step.access);
      PPCMM_CHECK_MSG(pa.has_value(), "page 0x" << std::hex << step.page
                                                << " untranslatable right after a touch");
      if (!step.via_bat) {
        const auto pte = cur.mm->page_table->LookupQuiet(token_ea);
        PPCMM_CHECK_MSG(pte.has_value() && pte->present,
                        "touched page 0x" << std::hex << step.page << " has no present PTE");
        PPCMM_CHECK_MSG(pte->frame == pa->PageFrame(),
                        "translation disagrees with the PTE tree on page 0x"
                            << std::hex << step.page << ": probe frame " << pa->PageFrame()
                            << ", PTE frame " << pte->frame);
      }
      if (step.expect_exact_frame) {
        PPCMM_CHECK_MSG(pa->PageFrame() == step.expect_frame,
                        "framebuffer page 0x" << std::hex << step.page << " maps frame 0x"
                                              << pa->PageFrame() << ", expected 0x"
                                              << step.expect_frame);
      }
      if (step.write_token) {
        sys.machine().memory().Write32(*pa, step.token);
      }
      if (step.check_token) {
        const uint32_t got = sys.machine().memory().Read32(*pa);
        PPCMM_CHECK_MSG(got == step.token, "page 0x" << std::hex << step.page
                                                     << " content diverged: read 0x" << got
                                                     << ", oracle expected 0x" << step.token);
      }
      break;
    }
    case FuzzOpKind::kTouchRun: {
      Task& cur = kernel.task(kernel.current());
      const uint64_t pf0 = cur.obs.page_faults;
      const uint64_t cf0 = cur.obs.cow_faults;
      kernel.UserTouchRun(EffAddr::FromPage(step.page, step.offset), step.run_stride,
                          step.run_count, step.access);
      PPCMM_CHECK_MSG(cur.obs.page_faults - pf0 == step.expect_page_faults,
                      "page-fault count diverged on run at page 0x"
                          << std::hex << step.page << std::dec << " (" << step.page_count
                          << " pages): kernel took " << (cur.obs.page_faults - pf0)
                          << ", oracle expected " << step.expect_page_faults);
      PPCMM_CHECK_MSG(cur.obs.cow_faults - cf0 == step.expect_cow_faults,
                      "COW-fault count diverged on run at page 0x"
                          << std::hex << step.page << std::dec << " (" << step.page_count
                          << " pages): kernel took " << (cur.obs.cow_faults - cf0)
                          << ", oracle expected " << step.expect_cow_faults);
      for (uint32_t i = 0; i < step.page_count; ++i) {
        const EffAddr token_ea = EffAddr::FromPage(step.page + i);
        const auto pa = sys.mmu().Probe(token_ea, step.access);
        PPCMM_CHECK_MSG(pa.has_value(), "page 0x" << std::hex << (step.page + i)
                                                  << " untranslatable right after a run");
        const auto pte = cur.mm->page_table->LookupQuiet(token_ea);
        PPCMM_CHECK_MSG(pte.has_value() && pte->present,
                        "run page 0x" << std::hex << (step.page + i) << " has no present PTE");
        PPCMM_CHECK_MSG(pte->frame == pa->PageFrame(),
                        "translation disagrees with the PTE tree on run page 0x"
                            << std::hex << (step.page + i) << ": probe frame "
                            << pa->PageFrame() << ", PTE frame " << pte->frame);
        if (step.write_token) {
          sys.machine().memory().Write32(*pa, step.run_tokens[i]);
        } else if (step.check_token) {
          const uint32_t got = sys.machine().memory().Read32(*pa);
          PPCMM_CHECK_MSG(got == step.run_tokens[i],
                          "run page 0x" << std::hex << (step.page + i)
                                        << " content diverged: read 0x" << got
                                        << ", oracle expected 0x" << step.run_tokens[i]);
        }
      }
      break;
    }
    case FuzzOpKind::kMmap:
    case FuzzOpKind::kMmapFixed: {
      MmapOptions options;
      if (step.fixed) {
        options.fixed_page = step.start_page;
      }
      const uint32_t got = kernel.Mmap(step.page_count, options);
      PPCMM_CHECK_MSG(got == step.start_page, "mmap returned page 0x"
                                                  << std::hex << got << ", oracle expected 0x"
                                                  << step.start_page);
      break;
    }
    case FuzzOpKind::kMunmap:
      kernel.Munmap(step.start_page, step.page_count);
      break;
    case FuzzOpKind::kFork: {
      const TaskId child = kernel.Fork(kernel.current());
      PPCMM_CHECK_MSG(child.value == step.target_task,
                      "fork returned task " << child.value << ", oracle expected "
                                            << step.target_task);
      break;
    }
    case FuzzOpKind::kExit:
      kernel.Exit(TaskId{step.target_task});
      break;
    case FuzzOpKind::kExec:
      kernel.Exec(TaskId{step.target_task}, ExecImage{.text_pages = step.exec_text,
                                                      .data_pages = step.exec_data,
                                                      .stack_pages = step.exec_stack});
      break;
    case FuzzOpKind::kSwitch:
      kernel.SwitchTo(TaskId{step.target_task});
      break;
    case FuzzOpKind::kCpuSwitch:
      kernel.SwitchCpu(step.target_cpu);
      if (step.target_task != 0) {
        // The oracle planned a switch-in because the CPU was idle; the kernel must agree.
        PPCMM_CHECK_MSG(kernel.current().value == 0,
                        "cpu " << step.target_cpu << " diverged: kernel has task "
                               << kernel.current().value << " current, oracle expected idle");
        kernel.SwitchTo(TaskId{step.target_task});
      }
      break;
    case FuzzOpKind::kTlbie:
      sys.mmu().TlbInvalidatePage(EffAddr::FromPage(step.start_page));
      break;
    case FuzzOpKind::kTlbia:
      sys.mmu().TlbInvalidateAll();
      break;
    case FuzzOpKind::kFbMap: {
      const uint32_t got = kernel.MapFramebuffer();
      PPCMM_CHECK_MSG(got == step.start_page, "MapFramebuffer returned page 0x"
                                                  << std::hex << got << ", expected 0x"
                                                  << step.start_page);
      PPCMM_CHECK_MSG(kernel.FramebufferBatActive() == step.fb_bat_after,
                      "framebuffer BAT " << (kernel.FramebufferBatActive() ? "active" : "off")
                                         << " after MapFramebuffer, oracle expected "
                                         << (step.fb_bat_after ? "active" : "off"));
      break;
    }
    case FuzzOpKind::kFbBatToggle:
      kernel.SetFramebufferBat(step.fb_bat_after);
      PPCMM_CHECK_MSG(kernel.FramebufferBatActive() == step.fb_bat_after,
                      "framebuffer BAT did not follow SetFramebufferBat("
                          << step.fb_bat_after << ")");
      break;
    case FuzzOpKind::kIdle:
      kernel.RunIdle(Cycles(step.idle_cycles));
      break;
  }
}

// The whole-machine sweep: every oracle-known page must be reachable with the right frame,
// permissions, content and dirty state; everything else must be unreachable; every live
// cached translation must be explainable by the oracle.
void FullCrossCheck(System& sys, const ReferenceMmu& ref, CoherenceAuditor& auditor) {
  auditor.Audit();  // the kernel's own invariants first (TLB/HTAB vs PTE tree, refcounts)

  Kernel& kernel = sys.kernel();
  const bool eager = ref.config().eager_dirty_marking;
  PPCMM_CHECK_MSG(kernel.current().value == ref.current(),
                  "current task diverged: kernel on " << kernel.current().value
                                                      << ", oracle on " << ref.current());
  PPCMM_CHECK_MSG(kernel.current_cpu() == ref.current_cpu(),
                  "current cpu diverged: kernel on " << kernel.current_cpu() << ", oracle on "
                                                     << ref.current_cpu());
  for (uint32_t cpu = 0; cpu < kernel.ncpus(); ++cpu) {
    PPCMM_CHECK_MSG(kernel.CurrentOn(cpu).value == ref.current_on(cpu),
                    "cpu " << cpu << " current task diverged: kernel has "
                           << kernel.CurrentOn(cpu).value << ", oracle has "
                           << ref.current_on(cpu));
  }
  PPCMM_CHECK_MSG(kernel.TaskCount() == ref.tasks().size(),
                  "task count diverged: kernel has " << kernel.TaskCount() << ", oracle has "
                                                     << ref.tasks().size());
  const uint32_t saved_cpu = kernel.current_cpu();
  const TaskId saved = kernel.current();

  for (const auto& [id, rt] : ref.tasks()) {
    PPCMM_CHECK_MSG(kernel.TaskExists(TaskId{id}), "oracle task " << id << " missing");
    // A task current on some CPU is inspected by hopping there (SwitchTo would double-run
    // it); everything else is switched in on the saved CPU. At ncpus=1 this is exactly the
    // old SwitchTo(id) walk.
    uint32_t on_cpu = kernel.ncpus();
    for (uint32_t cpu = 0; cpu < kernel.ncpus(); ++cpu) {
      if (kernel.CurrentOn(cpu).value == id) {
        on_cpu = cpu;
        break;
      }
    }
    kernel.SwitchCpu(on_cpu != kernel.ncpus() ? on_cpu : saved_cpu);
    kernel.SwitchTo(TaskId{id});
    Task& t = kernel.task(TaskId{id});

    PPCMM_CHECK_MSG(t.mm->page_table->PresentCount() == rt.pages.size(),
                    "task " << id << " present-page count diverged: PTE tree has "
                            << t.mm->page_table->PresentCount() << ", oracle has "
                            << rt.pages.size());
    PPCMM_CHECK_MSG(t.mm->vmas.TotalPages() == rt.vmas.TotalPages(),
                    "task " << id << " VMA page total diverged: kernel "
                            << t.mm->vmas.TotalPages() << ", oracle " << rt.vmas.TotalPages());

    for (const auto& [page, rp] : rt.pages) {
      const EffAddr ea = EffAddr::FromPage(page);
      const auto pte = t.mm->page_table->LookupQuiet(ea);
      PPCMM_CHECK_MSG(pte.has_value() && pte->present,
                      "task " << id << ": oracle page 0x" << std::hex << page
                              << " has no present PTE");
      const auto pa = sys.mmu().Probe(ea, AccessKind::kLoad);
      PPCMM_CHECK_MSG(pa.has_value(), "task " << id << ": oracle page 0x" << std::hex << page
                                              << " untranslatable");
      PPCMM_CHECK_MSG(pa->PageFrame() == pte->frame,
                      "task " << id << ": page 0x" << std::hex << page << " probes to frame 0x"
                              << pa->PageFrame() << " but the PTE says 0x" << pte->frame);
      if (ReferenceMmu::IsFbPage(page)) {
        const uint32_t idx = page - ReferenceMmu::kFbStartPage;
        PPCMM_CHECK_MSG(pte->frame == ref.fb_first_frame() + idx,
                        "framebuffer page 0x" << std::hex << page
                                              << " mapped to the wrong frame 0x" << pte->frame);
        PPCMM_CHECK_MSG(sys.machine().memory().Read32(*pa) == ref.fb_token(idx),
                        "framebuffer page 0x" << std::hex << page << " content diverged");
      } else {
        const uint32_t got = sys.machine().memory().Read32(*pa);
        PPCMM_CHECK_MSG(got == rp.token, "task " << id << ": page 0x" << std::hex << page
                                                 << " content diverged: read 0x" << got
                                                 << ", oracle expected 0x" << rp.token);
        PPCMM_CHECK_MSG(pte->writable == rp.writable && pte->cow == rp.cow,
                        "task " << id << ": page 0x" << std::hex << page
                                << " protection diverged: PTE writable=" << pte->writable
                                << " cow=" << pte->cow << ", oracle writable=" << rp.writable
                                << " cow=" << rp.cow);
        // The C-bit contract (§7): an architectural store must always surface as a dirty
        // PTE by the next quiescent point; without eager marking the converse holds too —
        // a dirty bit proves a store happened.
        PPCMM_CHECK_MSG(!rp.stored || pte->dirty,
                        "task " << id << ": page 0x" << std::hex << page
                                << " was stored to but its PTE is clean (lost C bit)");
        if (!eager) {
          PPCMM_CHECK_MSG(!pte->dirty || rp.stored,
                          "task " << id << ": page 0x" << std::hex << page
                                  << " is dirty but was never stored to");
        }
      }
    }

    // §7 zombie unreachability: pages the oracle says are unmapped must not translate, no
    // matter what stale TLB/HTAB state the flush optimizations left behind. Probe the
    // pages hugging every region boundary.
    for (const ReferenceVmaModel::Region& r : rt.vmas.Regions()) {
      const uint32_t probes[2] = {r.start - 1, r.start + r.pages};
      for (const uint32_t gp : probes) {
        if (gp == 0 || gp >= kKernelBasePage) {
          continue;
        }
        if (rt.vmas.Find(gp).has_value()) {
          continue;  // touching region, not a gap
        }
        if (ref.fb_bat_on() && ReferenceMmu::IsFbPage(gp)) {
          continue;  // the BAT translates the whole aperture regardless of VMAs
        }
        PPCMM_CHECK_MSG(!sys.mmu().Probe(EffAddr::FromPage(gp), AccessKind::kLoad).has_value(),
                        "task " << id << ": unmapped page 0x" << std::hex << gp
                                << " still translates (zombie mapping reachable)");
      }
    }
  }

  // Every live cached translation (TLB or HTAB entry whose VSID still resolves) must map a
  // page the oracle knows, to the frame the PTE tree records, with consistent permissions.
  kernel.ForEachLiveTranslation([&](const LiveTranslation& lt) {
    if (lt.is_kernel) {
      return;
    }
    const auto it = ref.tasks().find(lt.owner.value);
    PPCMM_CHECK_MSG(it != ref.tasks().end(),
                    "live translation owned by dead task " << lt.owner.value);
    PPCMM_CHECK_MSG(it->second.pages.count(lt.ea_page) != 0,
                    "task " << lt.owner.value << ": live translation for page 0x" << std::hex
                            << lt.ea_page << " the oracle says is not mapped");
    const auto pte =
        kernel.task(lt.owner).mm->page_table->LookupQuiet(EffAddr::FromPage(lt.ea_page));
    PPCMM_CHECK_MSG(pte.has_value() && pte->present && pte->frame == lt.frame &&
                        pte->writable == lt.writable,
                    "task " << lt.owner.value << ": live translation for page 0x" << std::hex
                            << lt.ea_page << " disagrees with its PTE");
    PPCMM_CHECK_MSG(!lt.changed || pte->dirty, "task " << lt.owner.value
                                                       << ": changed translation for page 0x"
                                                       << std::hex << lt.ea_page
                                                       << " but the PTE is clean");
  });

  kernel.SwitchCpu(saved_cpu);
  kernel.SwitchTo(saved);
}

}  // namespace

std::vector<FuzzPreset> FuzzPresets() {
  std::vector<FuzzPreset> presets = {
      {"baseline", OptimizationConfig::Baseline()},
      {"bat", OptimizationConfig::OnlyBatMapping()},
      {"scatter", OptimizationConfig::OnlyTunedScatter()},
      {"fast_handlers", OptimizationConfig::OnlyFastHandlers()},
      {"direct_reload", OptimizationConfig::OnlyDirectReload()},
      {"lazy_flush", OptimizationConfig::OnlyLazyFlush(20)},
      {"idle_reclaim", OptimizationConfig::OnlyIdleReclaim()},
      {"uncached_pt", OptimizationConfig::OnlyUncachedPageTables()},
      {"idle_zero", OptimizationConfig::OnlyIdleZero(IdleZeroPolicy::kUncachedWithList)},
      {"all", OptimizationConfig::AllOptimizations()},
      {"all_uncached_pt", OptimizationConfig::AllPlusUncachedPageTables()},
  };
  OptimizationConfig all_preloads = OptimizationConfig::AllOptimizations();
  all_preloads.cache_preload_hints = true;
  presets.push_back({"all_preloads", all_preloads});
  OptimizationConfig all_fb_bat = OptimizationConfig::AllOptimizations();
  all_fb_bat.framebuffer_bat = true;
  presets.push_back({"all_fb_bat", all_fb_bat});
  return presets;
}

FuzzPreset FuzzPresetByName(const std::string& name) {
  for (FuzzPreset& preset : FuzzPresets()) {
    if (preset.name == name) {
      return preset;
    }
  }
  PPCMM_CHECK_MSG(false, "unknown fuzz preset '" << name << "'");
  return {};
}

DifferentialResult RunDifferential(const FuzzStream& stream,
                                   const DifferentialOptions& options) {
  DifferentialResult result;

  // The reload strategy is an axis of the sweep, not of the preset: pin the config bit that
  // selects it. Hardware walk needs a 604; the software strategies need a 603.
  OptimizationConfig config = options.config;
  config.no_htab_direct_reload = options.strategy == ReloadStrategy::kSoftwareDirect;
  if (options.break_tlb_invalidate || options.break_shootdown) {
    // Both sabotages live in the eager per-page flush path (lazy VSID-bump retirement needs
    // neither a tlbie nor a shootdown); force every flush down that path so the planted bug
    // cannot hide behind lazy whole-context retirement.
    config.lazy_context_flush = false;
    config.range_flush_cutoff = 0;
  }
  MachineConfig machine = options.strategy == ReloadStrategy::kHardwareHtabWalk
                              ? MachineConfig::Ppc604(185)
                              : MachineConfig::Ppc603(80);
  machine.ncpus = options.ncpus == 0 ? 1 : options.ncpus;

  System sys(machine, config);
  // Flight recorder: on divergence the report carries the last attributed events, and every
  // lockstep run doubles as proof that attribution does not perturb the simulation.
  sys.machine().attr().SetEnabled(true);
  if (options.break_tlb_invalidate) {
    sys.kernel().flusher().TestOnlyBreakTlbInvalidate(true);
  }
  if (options.break_shootdown) {
    sys.kernel().flusher().TestOnlyBreakShootdown(true);
  }

  ReferenceMmu ref(RefArchConfig{
      .framebuffer_bat = config.framebuffer_bat,
      .eager_dirty_marking = config.lazy_context_flush,
      .num_frames = static_cast<uint32_t>(sys.machine().memory().num_frames()),
      .ncpus = machine.ncpus});
  CoherenceAuditor auditor(sys.kernel());

  std::deque<std::string> trace;  // the last few executed ops, for the report
  constexpr size_t kTraceTail = 16;
  uint32_t op_index = 0;
  const FuzzOp* current_op = nullptr;

  try {
    const TaskId boot = sys.kernel().CreateTask("fuzz0");
    sys.kernel().Exec(boot, ExecImage{.text_pages = 8, .data_pages = 8, .stack_pages = 4});
    sys.kernel().SwitchTo(boot);
    ref.Boot(boot.value, 8, 8, 4);

    for (; op_index < stream.ops.size(); ++op_index) {
      const FuzzOp& op = stream.ops[op_index];
      current_op = &op;
      const ExpectedStep step = ref.Plan(op, op_index);
      result.coverage.Note(op.kind, step.skip);
      if (step.skip) {
        continue;
      }
      if (trace.size() == kTraceTail) {
        trace.pop_front();
      }
      trace.push_back(OpLine(op_index, op));
      ApplyAndCheck(sys, step);
      ++result.ops_executed;
      if (options.check_period != 0 && result.ops_executed % options.check_period == 0) {
        FullCrossCheck(sys, ref, auditor);
      }
    }
    current_op = nullptr;
    op_index = stream.ops.empty() ? 0 : static_cast<uint32_t>(stream.ops.size()) - 1;
    FullCrossCheck(sys, ref, auditor);  // the final sweep always runs
  } catch (const CheckFailure& failure) {
    result.diverged = true;
    result.failed_op_index = op_index;
    std::ostringstream oss;
    oss << "=== fuzz divergence ===\n"
        << "seed:      " << stream.seed << "\n"
        << "preset:    " << options.config_name << "\n"
        << "strategy:  " << ReloadStrategyName(options.strategy) << "\n";
    if (machine.ncpus > 1) {
      oss << "ncpus:     " << machine.ncpus << "\n";
    }
    if (options.break_tlb_invalidate) {
      oss << "sabotage:  break_tlb_invalidate\n";
    }
    if (options.break_shootdown) {
      oss << "sabotage:  break_shootdown\n";
    }
    oss << "op index:  " << op_index;
    if (current_op != nullptr) {
      oss << " (" << FuzzOpName(current_op->kind) << " " << current_op->a << " "
          << current_op->b << " " << current_op->c << ")";
    } else {
      oss << " (final cross-check)";
    }
    oss << "\n"
        << "error:     " << failure.what() << "\n"
        << "recent ops:\n";
    for (const std::string& line : trace) {
      oss << "  " << line << "\n";
    }
    std::ostringstream replay;
    replay << "fuzz seed=" << stream.seed << "; replay: examples/fuzz --seed "
           << stream.seed << " --preset " << options.config_name;
    oss << FlightRecorderDump(sys.machine().attr(), replay.str());
    result.report = oss.str();
  }
  return result;
}

MatrixResult RunMatrix(const FuzzStream& stream, const OptimizationConfig& config,
                       const std::string& config_name, uint32_t check_period,
                       bool break_tlb_invalidate, uint32_t ncpus) {
  MatrixResult result;
  const ReloadStrategy strategies[] = {ReloadStrategy::kSoftwareDirect,
                                       ReloadStrategy::kSoftwareHtab,
                                       ReloadStrategy::kHardwareHtabWalk};
  for (const ReloadStrategy strategy : strategies) {
    DifferentialOptions options;
    options.config = config;
    options.config_name = config_name;
    options.strategy = strategy;
    options.check_period = check_period;
    options.break_tlb_invalidate = break_tlb_invalidate;
    options.ncpus = ncpus;
    DifferentialResult run = RunDifferential(stream, options);
    ++result.runs;
    result.coverage.Merge(run.coverage);
    if (run.diverged) {
      result.diverged = true;
      result.first_failure = std::move(run);
      result.failing_options = options;
      return result;
    }
  }
  return result;
}

}  // namespace ppcmm
