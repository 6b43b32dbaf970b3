#include "perfbench/src/workloads.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/sim/rng.h"
#include "src/sim/sweep_runner.h"
#include "src/verify/coherence_auditor.h"
#include "src/workloads/kernel_compile.h"
#include "src/workloads/lmbench.h"

namespace perfbench {

using ppcmm::AccessKind;
using ppcmm::Cycles;
using ppcmm::EffAddr;
using ppcmm::ExecImage;
using ppcmm::FileId;
using ppcmm::HwCounters;
using ppcmm::Kernel;
using ppcmm::kPageSize;
using ppcmm::MachineConfig;
using ppcmm::OptimizationConfig;
using ppcmm::Rng;
using ppcmm::System;
using ppcmm::TaskId;

namespace {

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

void AddCounters(HwCounters& into, const HwCounters& delta) {
#define PERFBENCH_ADD_COUNTER(name, comment) into.name += delta.name;
#define PERFBENCH_MAX_GAUGE(name, comment) into.name = std::max(into.name, delta.name);
  PPCMM_HW_COUNTER_FIELDS(PERFBENCH_ADD_COUNTER)
  PPCMM_HW_GAUGE_FIELDS(PERFBENCH_MAX_GAUGE)
#undef PERFBENCH_ADD_COUNTER
#undef PERFBENCH_MAX_GAUGE
}

void NoteError(RoundStats& r, const std::string& message) {
  if (r.error.empty()) {
    r.error = message;
  }
}

// The Kernel entry points the workloads call, each wrapped in a span of its own layer.
class TimedKernel {
 public:
  TimedKernel(Kernel& kernel, Tracer* tracer) : kernel_(kernel), tracer_(tracer) {}

  void UserTouch(EffAddr ea, AccessKind kind) {
    Span span(tracer_, Layer::kUserTouch);
    kernel_.UserTouch(ea, kind);
  }
  void UserTouchRun(EffAddr start, uint32_t stride, uint32_t count, AccessKind kind) {
    Span span(tracer_, Layer::kUserTouchRun);
    kernel_.UserTouchRun(start, stride, count, kind);
  }
  void UserExecute(uint32_t instructions) {
    Span span(tracer_, Layer::kUserExecute);
    kernel_.UserExecute(instructions);
  }
  uint32_t Mmap(uint32_t pages, const ppcmm::MmapOptions& options = {}) {
    Span span(tracer_, Layer::kMmap);
    return kernel_.Mmap(pages, options);
  }
  void Munmap(uint32_t start_page, uint32_t pages) {
    Span span(tracer_, Layer::kMunmap);
    kernel_.Munmap(start_page, pages);
  }
  TaskId Fork(TaskId parent) {
    Span span(tracer_, Layer::kFork);
    return kernel_.Fork(parent);
  }
  void Exec(TaskId task, const ExecImage& image) {
    Span span(tracer_, Layer::kExec);
    kernel_.Exec(task, image);
  }
  void Exit(TaskId task) {
    Span span(tracer_, Layer::kExit);
    kernel_.Exit(task);
  }
  void FileRead(FileId file, uint32_t offset, uint32_t length, EffAddr dst) {
    Span span(tracer_, Layer::kFileRead);
    kernel_.FileRead(file, offset, length, dst);
  }
  void FileWrite(FileId file, uint32_t offset, uint32_t length, EffAddr src) {
    Span span(tracer_, Layer::kFileWrite);
    kernel_.FileWrite(file, offset, length, src);
  }
  void RunIdle(Cycles budget) {
    Span span(tracer_, Layer::kRunIdle);
    kernel_.RunIdle(budget);
  }
  void SwitchTo(TaskId task) {
    Span span(tracer_, Layer::kSwitchTo);
    kernel_.SwitchTo(task);
  }
  void SwitchCpu(uint32_t cpu) {
    Span span(tracer_, Layer::kSwitchCpu);
    kernel_.SwitchCpu(cpu);
  }

 private:
  Kernel& kernel_;
  Tracer* tracer_;
};

std::unique_ptr<System> Construct(RoundStats& r, Tracer* tracer, const MachineConfig& machine,
                                  const OptimizationConfig& opts) {
  const uint64_t start = NowNs();
  std::unique_ptr<System> system;
  {
    Span span(tracer, Layer::kSystemCtor);
    system = std::make_unique<System>(machine, opts);
  }
  r.ctor_s.push_back(Seconds(NowNs() - start));
  return system;
}

void Destroy(RoundStats& r, Tracer* tracer, std::unique_ptr<System> system) {
  const uint64_t start = NowNs();
  {
    Span span(tracer, Layer::kSystemDtor);
    system.reset();
  }
  r.dtor_s.push_back(Seconds(NowNs() - start));
}

// Snapshots one System around its op window: counters, host fast-path statistics and,
// when asked, the cycle ledger.
class OpWindow {
 public:
  OpWindow(System& system, const RoundOptions& options)
      : system_(system),
        ledger_(options.ledger),
        before_(system.counters()),
        fast_hits_(system.mmu().fast_path_hits()),
        fast_misses_(system.mmu().fast_path_misses()),
        span_accesses_(system.mmu().span_accesses()) {
    if (ledger_) {
      system_.machine().attr().Clear();
      system_.machine().attr().SetEnabled(true);
    }
  }

  void Close(RoundStats& r) {
    AddCounters(r.window, system_.counters().Diff(before_));
    r.fast_hits += system_.mmu().fast_path_hits() - fast_hits_;
    r.fast_misses += system_.mmu().fast_path_misses() - fast_misses_;
    r.span_accesses += system_.mmu().span_accesses() - span_accesses_;
    if (ledger_) {
      ppcmm::CycleLedger& ledger = system_.machine().attr();
      ledger.SetEnabled(false);
      r.attributed += ledger.TotalAttributed();
      for (const ppcmm::CycleLedger::Cell& cell : ledger.Cells()) {
        const ppcmm::AttrCause leaf =
            cell.path.empty() ? ppcmm::AttrCause::kInstruction : cell.path.back();
        r.attr[static_cast<size_t>(leaf)] += cell.cycles;
      }
    }
  }

 private:
  System& system_;
  bool ledger_;
  HwCounters before_;
  uint64_t fast_hits_;
  uint64_t fast_misses_;
  uint64_t span_accesses_;
};

// Runs one operation inside its op span. A throw counts the op as failed and ends the
// round: the System's state is no longer the one the seed describes.
template <typename Body>
bool RunOp(RoundStats& r, Tracer* tracer, uint32_t op, Body&& body) {
  ++r.ops;
  if (tracer != nullptr) {
    tracer->SetOp(op);
  }
  try {
    Span span(tracer, Layer::kOp);
    body();
    return true;
  } catch (const std::exception& e) {
    ++r.failed;
    NoteError(r, std::string("op ") + std::to_string(op) + " threw: " + e.what());
    return false;
  }
}

// Runs a round body, turning a throw outside any op (set-up, audit, teardown) into a
// round error.
template <typename Body>
void Guarded(RoundStats& r, Body&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    NoteError(r, std::string("round threw: ") + e.what());
  }
}

// The op loop of the single-System workloads: op(i) for i < ops inside the op window,
// with an audit every `audit_period` ops in the check round and one at the end. Returns
// false when an op failed.
template <typename Op>
bool RunOpLoop(RoundStats& r, const RoundOptions& options, System& system, uint32_t ops,
               uint32_t audit_period, Op&& op) {
  ppcmm::CoherenceAuditor auditor(system.kernel());
  auditor.SetPeriod(options.check ? audit_period : 0);
  OpWindow window(system, options);
  const uint64_t loop_start = NowNs();
  for (uint32_t i = 0; i < ops; ++i) {
    if (!RunOp(r, options.tracer, i, [&] { op(i); })) {
      break;
    }
    auditor.NoteEvent();
  }
  r.op_s = Seconds(NowNs() - loop_start);
  window.Close(r);
  if (r.failed > 0) {
    return false;
  }
  auditor.Audit();
  return true;
}

bool SameCounters(const HwCounters& a, const HwCounters& b) {
  bool same = true;
#define PERFBENCH_COMPARE(name, comment) same = same && a.name == b.name;
  PPCMM_HW_COUNTER_FIELDS(PERFBENCH_COMPARE)
  PPCMM_HW_GAUGE_FIELDS(PERFBENCH_COMPARE)
#undef PERFBENCH_COMPARE
  return same;
}

// ---- kcompile ----

constexpr uint32_t kKcompileUnits = 192;

ppcmm::KernelCompileConfig KcompileConfig(const Params& params) {
  ppcmm::KernelCompileConfig config;
  config.compilation_units = params.tiny ? 2 : kKcompileUnits;
  config.seed = params.seed;
  return config;
}

MachineConfig KcompileMachine() { return MachineConfig::Ppc604(185); }

}  // namespace

unsigned Clients() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, 4u);
}

// Mirrors RunKernelCompile (src/workloads/kernel_compile.cc) call for call, so that every
// Kernel entry can be timed; the check round proves both end with identical counters.
RoundStats KcompileRound(const Params& params, const RoundOptions& options) {
  const ppcmm::KernelCompileConfig cc = KcompileConfig(params);
  Tracer* tracer = options.tracer;
  RoundStats r;
  Guarded(r, [&] {
    const uint64_t setup_start = NowNs();
    std::unique_ptr<System> system =
        Construct(r, tracer, KcompileMachine(), OptimizationConfig::AllOptimizations());
    Kernel& kernel = system->kernel();
    const FileId cc1_image = kernel.page_cache().CreateFile(cc.cc1_text_pages);
    const FileId libc_image = kernel.page_cache().CreateFile(cc.shared_lib_pages);
    const FileId make_image = kernel.page_cache().CreateFile(8);
    const TaskId make = kernel.CreateTask("make");
    kernel.Exec(make, ExecImage{.text_pages = 8,
                                .data_pages = 32,
                                .stack_pages = 4,
                                .text_file = make_image});
    kernel.SwitchTo(make);
    kernel.UserExecute(512);
    r.setup_s = Seconds(NowNs() - setup_start);

    TimedKernel k(kernel, tracer);
    Rng rng(cc.seed);
    const uint32_t lib_base = (ppcmm::kUserMmapBase >> ppcmm::kPageShift) + 0x400;
    const ppcmm::MmapOptions lib_map{
        .fixed_page = lib_base, .file = libc_image, .file_page_offset = 0, .writable = false};
    const EffAddr heap(ppcmm::kUserDataBase);
    const bool ok = RunOpLoop(r, options, *system, cc.compilation_units, 16, [&](uint32_t) {
      k.UserExecute(1024);
      kernel.NullSyscall();
      const TaskId cc1 = k.Fork(make);
      k.SwitchTo(cc1);
      k.Exec(cc1, ExecImage{.text_pages = cc.cc1_text_pages,
                            .data_pages = cc.working_set_pages + 16,
                            .stack_pages = 8,
                            .text_file = cc1_image});
      k.Mmap(cc.shared_lib_pages, lib_map);
      for (uint32_t i = 0; i < cc.shared_lib_pages / 4; ++i) {
        const uint32_t page =
            lib_base + static_cast<uint32_t>(rng.NextBelow(cc.shared_lib_pages));
        k.UserTouch(EffAddr::FromPage(page), AccessKind::kLoad);
      }
      k.Mmap(cc.shared_lib_pages, lib_map);
      const FileId source = kernel.page_cache().CreateFile(cc.source_file_pages);
      k.FileRead(source, 0, cc.source_file_pages * kPageSize,
                 EffAddr(ppcmm::kUserDataBase + 16 * kPageSize));
      for (uint32_t loop = 0; loop < cc.compute_loops; ++loop) {
        k.UserExecute(4096);
        const uint32_t offset = static_cast<uint32_t>(rng.NextBelow(kPageSize / 64)) * 64;
        k.UserTouchRun(heap + offset, kPageSize, cc.working_set_pages, AccessKind::kLoad);
        k.UserTouchRun(heap + offset, 3 * kPageSize, (cc.working_set_pages + 2) / 3,
                       AccessKind::kStore);
      }
      const FileId object = kernel.page_cache().CreateFile(cc.object_file_pages);
      k.FileWrite(object, 0, cc.object_file_pages * kPageSize, heap);
      k.RunIdle(Cycles(kernel.costs().disk_latency_cycles));
      k.Exit(cc1);
      k.SwitchTo(make);
      kernel.page_cache().DeleteFile(source);
      kernel.page_cache().DeleteFile(object);
    });
    if (!ok) {
      return;
    }
    kernel.Exit(make);
    r.end_states.push_back(system->counters());
    Destroy(r, tracer, std::move(system));

    if (options.check) {
      System reference(KcompileMachine(), OptimizationConfig::AllOptimizations());
      ppcmm::RunKernelCompile(reference, cc);
      if (!SameCounters(reference.counters(), r.end_states.back())) {
        NoteError(r, "kcompile: the call-by-call mirror's counters differ from "
                     "RunKernelCompile's for the same seed and size");
      }
    }
  });
  return r;
}

// ---- translate ----

namespace {
constexpr uint32_t kTranslateTasks = 4;
constexpr uint32_t kTranslateTouches = 512;
constexpr uint32_t kTranslateStride = 32;
}  // namespace

// Four resident tasks on a 603 with the software HTAB reload; each op switches to the next
// task, makes scattered single references, then streams its whole working set.
RoundStats TranslateRound(const Params& params, const RoundOptions& options) {
  const uint32_t ws_pages = params.tiny ? 64 : 1024;
  const uint32_t ops = params.tiny ? 4 : 256;
  Tracer* tracer = options.tracer;
  RoundStats r;
  Guarded(r, [&] {
    const uint64_t setup_start = NowNs();
    std::unique_ptr<System> system =
        Construct(r, tracer, MachineConfig::Ppc603(180), OptimizationConfig::Baseline());
    Kernel& kernel = system->kernel();
    const EffAddr heap(ppcmm::kUserDataBase);
    std::vector<TaskId> tasks;
    for (uint32_t t = 0; t < kTranslateTasks; ++t) {
      const TaskId id = kernel.CreateTask("resident" + std::to_string(t));
      kernel.Exec(id, ExecImage{.text_pages = 4, .data_pages = ws_pages + 4, .stack_pages = 4});
      kernel.SwitchTo(id);
      kernel.UserTouchRun(heap, kPageSize, ws_pages, AccessKind::kStore);
      tasks.push_back(id);
    }
    r.setup_s = Seconds(NowNs() - setup_start);

    TimedKernel k(kernel, tracer);
    Rng rng(params.seed);
    const uint32_t run_count = ws_pages * kPageSize / kTranslateStride;
    const bool ok = RunOpLoop(r, options, *system, ops, 16, [&](uint32_t op) {
      k.SwitchTo(tasks[op % kTranslateTasks]);
      for (uint32_t i = 0; i < kTranslateTouches; ++i) {
        const uint32_t page = static_cast<uint32_t>(rng.NextBelow(ws_pages));
        const uint32_t word = static_cast<uint32_t>(rng.NextBelow(kPageSize / 4));
        const AccessKind kind =
            rng.NextBelow(8) == 0 ? AccessKind::kStore : AccessKind::kLoad;
        k.UserTouch(heap + (page * kPageSize + word * 4), kind);
      }
      k.UserTouchRun(heap, kTranslateStride, run_count, AccessKind::kLoad);
    });
    if (!ok) {
      return;
    }
    r.end_states.push_back(system->counters());
    Destroy(r, tracer, std::move(system));
  });
  return r;
}

// ---- mmap_churn ----

namespace {
constexpr uint32_t kChurnCpus = 2;
constexpr uint32_t kChurnTasks = 3;  // more tasks than CPUs, so tasks migrate
constexpr uint32_t kChurnResidentPages = 64;
constexpr ExecImage kChurnImage{.text_pages = 8,
                                .data_pages = kChurnResidentPages + 8,
                                .stack_pages = 4};

// One task slot: the task (0 = exited, respawned when next scheduled) and the region it
// mapped on its last turn, unmapped on its next turn, possibly on the other CPU.
struct ChurnSlot {
  TaskId task;
  uint32_t region_start = 0;
  uint32_t region_pages = 0;
};
}  // namespace

// Two CPUs of a 604 with every optimization and three tasks. Each op lands on the
// least-advanced CPU, switches to the next task not running elsewhere, reads and unmaps
// the region that task mapped on its previous turn (often on the other CPU, so the
// shootdown matters), maps and store-touches a new one of 4-43 pages, and reads the
// resident set. Periodic idle slices, fork+exec+exit rotations and exits that leave a
// CPU idle bring in idle reclaim, process churn and idle-skipped shootdowns.
RoundStats MmapChurnRound(const Params& params, const RoundOptions& options) {
  const uint32_t ops = params.tiny ? 16 : 3200;
  Tracer* tracer = options.tracer;
  RoundStats r;
  Guarded(r, [&] {
    const uint64_t setup_start = NowNs();
    MachineConfig machine = MachineConfig::Ppc604(185);
    machine.ncpus = kChurnCpus;
    std::unique_ptr<System> system =
        Construct(r, tracer, machine, OptimizationConfig::AllOptimizations());
    Kernel& kernel = system->kernel();
    const EffAddr heap(ppcmm::kUserDataBase);
    std::array<ChurnSlot, kChurnTasks> slots{};
    for (uint32_t s = 0; s < kChurnTasks; ++s) {
      kernel.SwitchCpu(s % kChurnCpus);
      slots[s].task = kernel.CreateTask("churn");
      kernel.Exec(slots[s].task, kChurnImage);
      kernel.SwitchTo(slots[s].task);
      kernel.UserTouchRun(heap, kPageSize, kChurnResidentPages, AccessKind::kStore);
    }
    r.setup_s = Seconds(NowNs() - setup_start);

    TimedKernel k(kernel, tracer);
    Rng rng(params.seed);
    uint32_t cursor = 0;
    const bool ok = RunOpLoop(r, options, *system, ops, 64, [&](uint32_t op) {
      uint32_t cpu = 0;
      for (uint32_t c = 1; c < kChurnCpus; ++c) {
        if (system->machine().CpuCycles(c) < system->machine().CpuCycles(cpu)) {
          cpu = c;
        }
      }
      k.SwitchCpu(cpu);
      const uint32_t other = (cpu + 1) % kChurnCpus;
      ChurnSlot* slot = &slots[cursor++ % kChurnTasks];
      if (slot->task.value != 0 && kernel.CurrentOn(other) == slot->task) {
        slot = &slots[cursor++ % kChurnTasks];
      }
      if (slot->task.value == 0) {
        slot->task = kernel.CreateTask("churn");
        k.Exec(slot->task, kChurnImage);
        k.SwitchTo(slot->task);
        k.UserTouchRun(heap, kPageSize, kChurnResidentPages, AccessKind::kStore);
        return;
      }
      if (kernel.CurrentOn(cpu) != slot->task) {
        k.SwitchTo(slot->task);
      }
      if (slot->region_pages > 0) {
        const EffAddr region = EffAddr::FromPage(slot->region_start);
        k.UserTouchRun(region, kPageSize, slot->region_pages, AccessKind::kLoad);
        k.Munmap(slot->region_start, slot->region_pages);
      }
      slot->region_pages = 4 + static_cast<uint32_t>(rng.NextBelow(40));
      slot->region_start = k.Mmap(slot->region_pages);
      k.UserTouchRun(EffAddr::FromPage(slot->region_start), kPageSize, slot->region_pages,
                     AccessKind::kStore);
      k.UserTouchRun(heap, 1024, kChurnResidentPages * (kPageSize / 1024), AccessKind::kLoad);
      if (op % 8 == 7) {
        k.RunIdle(Cycles(20000));
      }
      if (op % 24 == 23) {
        // fork + exec + exit: the child replaces its parent on this CPU.
        const TaskId child = k.Fork(slot->task);
        k.SwitchTo(child);
        k.Exec(child, kChurnImage);
        k.UserTouchRun(heap, kPageSize, kChurnResidentPages, AccessKind::kStore);
        k.Exit(slot->task);
        *slot = ChurnSlot{child};
      } else if (op % 40 == 39) {
        // The task exits and the CPU idles; shootdowns meanwhile skip it.
        k.Exit(slot->task);
        *slot = ChurnSlot{};
        k.RunIdle(Cycles(400000));
      }
    });
    if (!ok) {
      return;
    }
    r.end_states.push_back(system->counters());
    Destroy(r, tracer, std::move(system));
  });
  return r;
}

// ---- config_sweep ----

namespace {

struct SweepConfig {
  MachineConfig machine;
  OptimizationConfig opts;
};

// Passes over the 12 configurations per round. The round ends when its slowest thread
// does, so with one pass (3 Systems per thread) the idle tail at the end of a round made
// the throughput depend on the claim order and on any one slow host CPU.
constexpr uint32_t kSweepPasses = 4;

std::vector<SweepConfig> SweepConfigs(uint32_t passes) {
  std::vector<SweepConfig> configs;
  for (uint32_t pass = 0; pass < passes; ++pass) {
    for (const MachineConfig& machine :
         {MachineConfig::Ppc604(185), MachineConfig::Ppc603(180)}) {
      for (const OptimizationConfig& opts :
           {OptimizationConfig::Baseline(), OptimizationConfig::AllOptimizations(),
            OptimizationConfig::OnlyDirectReload(), OptimizationConfig::OnlyLazyFlush(),
            OptimizationConfig::OnlyIdleReclaim(), OptimizationConfig::OnlyBatMapping()}) {
        configs.push_back(SweepConfig{machine, opts});
      }
    }
  }
  return configs;
}

ppcmm::LmBenchParams SweepParams(const Params& params, Rng& rng) {
  ppcmm::LmBenchParams lm;
  lm.mmap_pages = 56 + static_cast<uint32_t>(rng.NextBelow(17));
  if (params.tiny) {
    lm.syscall_iters = 20;
    lm.ctxsw_passes = 4;
    lm.pipe_latency_iters = 10;
    lm.pipe_bandwidth_bytes = 1 << 16;
    lm.file_pages = 16;
    lm.file_reread_iters = 1;
    lm.mmap_iters = 2;
    lm.proc_start_iters = 2;
  }
  return lm;
}

// The same test sequence LmBench::RunAll issues, one span per test.
void RunLmBench(ppcmm::LmBench& lm, Tracer* tracer) {
  {
    Span span(tracer, Layer::kLmNullSyscall);
    lm.NullSyscallUs();
  }
  {
    Span span(tracer, Layer::kLmContextSwitch);
    lm.ContextSwitchUs(2);
    lm.ContextSwitchUs(8);
  }
  {
    Span span(tracer, Layer::kLmPipeLatency);
    lm.PipeLatencyUs();
  }
  {
    Span span(tracer, Layer::kLmPipeBandwidth);
    lm.PipeBandwidthMbs();
  }
  {
    Span span(tracer, Layer::kLmFileReread);
    lm.FileRereadMbs();
  }
  {
    Span span(tracer, Layer::kLmMmapLatency);
    lm.MmapLatencyUs();
  }
  {
    Span span(tracer, Layer::kLmProcessStart);
    lm.ProcessStartUs();
  }
}

struct ConfigResult {
  RoundStats stats;
  Tracer tracer;
  double start_s = 0;
  double busy_s = 0;
};

}  // namespace

// Many short Systems: each op builds one of the paper's configurations, runs the LmBench
// suite on it and destroys it, on a SweepRunner pool of a fixed size. A round makes
// kSweepPasses passes over the configurations, in a seed-shuffled claim order.
RoundStats ConfigSweepRound(const Params& params, const RoundOptions& options) {
  std::vector<SweepConfig> configs = SweepConfigs(params.tiny ? 1 : kSweepPasses);
  Rng rng(params.seed);
  for (size_t i = configs.size() - 1; i > 0; --i) {  // seed-shuffled claim order
    std::swap(configs[i], configs[static_cast<size_t>(rng.NextBelow(i + 1))]);
  }
  const ppcmm::LmBenchParams lm_params = SweepParams(params, rng);
  Tracer* tracer = options.tracer;
  RoundStats r;
  r.threads = Clients();
  Guarded(r, [&] {
    ppcmm::SweepRunner runner(r.threads);
    std::vector<ConfigResult> results;
    const uint64_t map_start = NowNs();
    {
      Span map_span(tracer, Layer::kSweepMap);
      results = runner.Map(configs.size(), [&](size_t i) {
        ConfigResult out;
        out.tracer = Tracer(static_cast<uint32_t>(i + 1));
        Tracer* local = tracer != nullptr ? &out.tracer : nullptr;
        const uint64_t start = NowNs();
        out.start_s = Seconds(start - map_start);
        RoundStats& s = out.stats;
        RunOp(s, local, static_cast<uint32_t>(i), [&] {
          const uint64_t setup_start = NowNs();
          std::unique_ptr<System> system =
              Construct(s, local, configs[i].machine, configs[i].opts);
          ppcmm::LmBench lm(*system, lm_params);
          s.setup_s = Seconds(NowNs() - setup_start);
          OpWindow window(*system, options);
          RunLmBench(lm, local);
          window.Close(s);
          if (options.check) {
            ppcmm::CoherenceAuditor(system->kernel()).Audit();
          }
          s.end_states.push_back(system->counters());
          Destroy(s, local, std::move(system));
        });
        out.busy_s = Seconds(NowNs() - start);
        return out;
      });
      if (tracer != nullptr) {
        for (const ConfigResult& result : results) {
          tracer->Merge(result.tracer);
        }
      }
    }
    r.op_s = Seconds(NowNs() - map_start);

    std::vector<double> setups;
    for (ConfigResult& result : results) {
      const RoundStats& s = result.stats;
      r.ops += s.ops;
      r.failed += s.failed;
      if (!s.error.empty()) {
        NoteError(r, s.error);
      }
      AddCounters(r.window, s.window);
      r.end_states.insert(r.end_states.end(), s.end_states.begin(), s.end_states.end());
      r.fast_hits += s.fast_hits;
      r.fast_misses += s.fast_misses;
      r.span_accesses += s.span_accesses;
      r.attributed += s.attributed;
      for (size_t c = 0; c < r.attr.size(); ++c) {
        r.attr[c] += s.attr[c];
      }
      r.ctor_s.insert(r.ctor_s.end(), s.ctor_s.begin(), s.ctor_s.end());
      r.dtor_s.insert(r.dtor_s.end(), s.dtor_s.begin(), s.dtor_s.end());
      setups.push_back(s.setup_s);
      r.busy_s += result.busy_s;
      r.wait_s.push_back(result.start_s);
    }
    std::sort(setups.begin(), setups.end());
    r.setup_s = setups.empty() ? 0.0 : setups[setups.size() / 2];

    if (options.check && r.failed == 0 && !r.end_states.empty()) {
      // The per-test sequence above must be exactly LmBench::RunAll.
      System reference(configs[0].machine, configs[0].opts);
      ppcmm::LmBench(reference, lm_params).RunAll();
      if (!SameCounters(reference.counters(), r.end_states.front())) {
        NoteError(r, "config_sweep: the per-test LmBench sequence's counters differ from "
                     "LmBench::RunAll's");
      }
    }
  });
  return r;
}

bool SameCounterSets(const std::vector<HwCounters>& a, const std::vector<HwCounters>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameCounters(a[i], b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
