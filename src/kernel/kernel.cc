#include "src/kernel/kernel.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/sim/check.h"

namespace ppcmm {

namespace {

// Per-operation kernel code/data footprint: which pages of kernel text the operation's code
// lives in and how many distinct kernel data references it makes. When BATs are off every
// distinct page here costs a TLB entry — the source of the paper's "33% of TLB entries were
// kernel" measurement.
struct Footprint {
  uint32_t text_page = 0;   // first page of the handler's code within kernel text
  uint32_t text_pages = 1;  // pages of code executed
  uint32_t data_offset = 0;  // offset into kernel static data
  uint32_t data_refs = 1;    // distinct data references
};

constexpr uint32_t kIdleTextPage = 5;
// The idle loop's own cycles per iteration beyond its fetch, and the extra spin of an
// iteration that found no work.
constexpr uint64_t kIdleLoopCycles = 10;
constexpr uint64_t kIdleSpinCycles = 20;

}  // namespace

namespace {

MmuPolicy MakeMmuPolicy(const MachineConfig& machine_config, const OptimizationConfig& config) {
  MmuPolicy policy;
  if (machine_config.reload == TlbReloadMechanism::kSoftware) {
    policy.strategy = config.no_htab_direct_reload ? ReloadStrategy::kSoftwareDirect
                                                   : ReloadStrategy::kSoftwareHtab;
  } else {
    // The 604 cannot bypass the hardware-walked HTAB (§6.2).
    policy.strategy = ReloadStrategy::kHardwareHtabWalk;
  }
  policy.optimized_handlers = config.optimized_handlers;
  policy.cache_page_tables = !config.uncached_page_tables;
  // Zombie PTEs can never write their C bits back, so lazy flushing requires dirty bits to
  // be correct at load time.
  policy.eager_dirty_marking = config.eager_dirty_marking || config.lazy_context_flush;
  return policy;
}

}  // namespace

Kernel::Kernel(Machine& machine, const OptimizationConfig& config, const KernelCostModel& costs)
    : machine_(machine),
      config_(config),
      costs_(costs),
      vsids_(config.vsid_scatter),
      allocator_(kFirstPoolFrame,
                 static_cast<uint32_t>(machine.memory().num_frames()) - kFirstPoolFrame -
                     kFramebufferBytes / kPageSize),
      mem_(machine, allocator_, config_),
      mmu_(std::make_unique<Mmu>(machine, MakeMmuPolicy(machine.config(), config),
                                 PhysAddr(kHtabPhysBase))),
      kernel_page_table_(nullptr),
      flusher_(*mmu_, vsids_, config_),
      page_cache_(machine, mem_) {
  framebuffer_first_frame_ =
      static_cast<uint32_t>(machine.memory().num_frames()) - kFramebufferBytes / kPageSize;
  smp_.ncpus = machine.ncpus();
  smp_.running.assign(smp_.ncpus, TaskId{0});  // every CPU boots in its idle loop
  smp_.flush_pending.assign(smp_.ncpus, 0);
  flusher_.SetSmp(&smp_);
  mmu_->SetBacking(this);
  mmu_->SetVsidOracle(&vsids_);
  mem_.SetReclaimHook([this](uint32_t target) { return page_cache_.ReclaimPages(target); });
  vsids_.SetRolloverHook([this] { HandleVsidRollover(); });
  kernel_page_table_ = std::make_unique<PageTable>(allocator_, machine_.memory());
  SetupKernelTranslation();
}

void Kernel::SetFaultInjector(FaultInjector* injector) {
  if (injector_ != nullptr && injector_ != injector) {
    injector_->SetFireObserver(nullptr);
  }
  injector_ = injector;
  if (injector != nullptr) {
    // Every fire — wherever the site lives, even in components with no Machine reference
    // like VsidSpace — lands in the trace ring for post-mortem correlation.
    injector->SetFireObserver([this](FaultClass, uint64_t) {
      machine_.attr().RecordInstant(AttrEventKind::kFaultInjected, machine_.Now().value);
    });
  }
  mmu_->SetFaultInjector(injector);
  mem_.SetFaultInjector(injector);
  vsids_.SetFaultInjector(injector);
}

void Kernel::HandleVsidRollover() {
  // The 24-bit VSID space wrapped: VSIDs about to be issued may still sit — live or zombie —
  // in the TLB, the HTAB, and the segment registers. Make the whole previous epoch
  // unreachable, then move every live context into the new epoch.
  CycleScope rollover_scope(machine_, AttrCause::kVsidRollover);
  ++machine_.counters().vsid_epoch_rollovers;
  flusher_.RolloverInvalidateAll();
  if (mmu_->policy().UsesHtab()) {
    mmu_->htab().InvalidateMatching(
        [](const HashedPte& pte) { return !VsidSpace::IsKernelVsid(pte.vsid); }, nullptr);
  }
  // The sweep above plus the reassignment loop below: a genuinely global, rare event.
  machine_.AddCycles(Cycles(2000));
  for (auto& [id, t] : tasks_) {
    Mm& mm = *t->mm;
    if (!vsids_.ContextLive(mm.context)) {
      // Mid-lazy-flush: the caller already retired this context and will assign a fresh one
      // itself as soon as this hook returns.
      continue;
    }
    vsids_.Retire(mm.context);
    mm.context = vsids_.NewContext();
  }
  // Every CPU whose current task just moved to a new context must see the fresh VSIDs.
  for (uint32_t cpu = 0; cpu < smp_.ncpus; ++cpu) {
    const TaskId cur = smp_.running[cpu];
    if (cur.value != 0 && tasks_.contains(cur.value)) {
      mmu_->segments(cpu).LoadUserSegments(vsids_.SegmentImage(task(cur).mm->context));
    }
  }
}

void Kernel::InjectZombieFlood() {
  if (!mmu_->policy().UsesHtab()) {
    return;  // zombies live in the HTAB; the TLB-only mode has nothing to flood
  }
  // Draw a throwaway context, stuff the HTAB with its PTEs, and retire it immediately: the
  // entries are zombies from birth, exactly what a lazy flush of a busy task leaves behind.
  const ContextId ctx = vsids_.NewContext();
  DataMemCharger charger = mmu_->PageTableCharger();
  for (uint32_t i = 0; i < 64; ++i) {
    const HashedPte pte{.valid = true,
                        .vsid = vsids_.UserVsid(ctx, i % kFirstKernelSegment),
                        .page_index = (i * 37u) & 0xFFFFu,
                        .rpn = 0,
                        .cache_inhibited = false,
                        .writable = false,
                        .referenced = true,
                        .changed = false};
    mmu_->htab().Insert(pte, vsids_, charger);
  }
  vsids_.Retire(ctx);
}

Kernel::~Kernel() {
  for (auto& [id, pipe] : pipes_) {
    allocator_.DecRef(pipe.buffer_frame);
  }
  for (auto& [id, segment] : shm_segments_) {
    for (const uint32_t frame : segment.frames) {
      allocator_.DecRef(frame);
    }
  }
}

void Kernel::SetupKernelTranslation() {
  // Linear map: kernel VA 0xC0000000 + x -> phys x, for all of RAM. This PTE-tree mapping is
  // the translation source when BATs are off; with BATs on it is still present but idle.
  const uint32_t frames = static_cast<uint32_t>(machine_.memory().num_frames());
  for (uint32_t frame = 0; frame < frames; ++frame) {
    const LinuxPte pte{.present = true,
                       .writable = true,
                       .user = false,
                       .accessed = false,
                       .dirty = false,
                       .cache_inhibited = false,
                       .cow = false,
                       .frame = frame};
    kernel_page_table_->Map(KernelVirtFromPhys(PhysAddr::FromFrame(frame)), pte, nullptr);
  }

  if (config_.kernel_bat_mapping) {
    // §5.1: one BAT pair covers the kernel's contiguous physical image — and with it the
    // HTAB and page tables, "given to us for free".
    uint32_t block = kMinBatBlock;
    while (block < machine_.memory().size_bytes()) {
      block <<= 1;
    }
    const BatEntry bat{.valid = true,
                       .eff_base = kKernelVirtualBase,
                       .block_bytes = block,
                       .phys_base = 0,
                       .cache_inhibited = false,
                       .supervisor_only = true};
    mmu_->ibats().Set(0, bat);
    mmu_->dbats().Set(0, bat);
  }

  // Kernel segments always hold the fixed kernel VSIDs; user segments start vacant. Every
  // CPU boots with the same image — on real hardware each CPU's startup code loads it.
  std::array<Vsid, kNumSegments> image{};
  for (uint32_t seg = kFirstKernelSegment; seg < kNumSegments; ++seg) {
    image[seg] = VsidSpace::KernelVsid(seg);
  }
  for (uint32_t cpu = 0; cpu < smp_.ncpus; ++cpu) {
    mmu_->segments(cpu).LoadAll(image);
  }
}

// ---- process management ----

TaskId Kernel::CreateTask(std::string name) {
  const TaskId id{next_task_++};
  auto task = std::make_unique<Task>();
  task->id = id;
  task->name = std::move(name);
  task->mm = std::make_unique<Mm>(vsids_, allocator_, machine_.memory());
  task->task_struct_pa = PhysAddr(kKernelMiscPhysBase + (id.value % 256) * 1024);
  task->text_page = kUserTextBase >> kPageShift;
  task->stack_page = (kUserStackTop >> kPageShift) - 1;
  tasks_.emplace(id.value, std::move(task));
  return id;
}

Task& Kernel::task(TaskId id) {
  auto it = tasks_.find(id.value);
  PPCMM_CHECK_MSG(it != tasks_.end(), "no such task " << id.value);
  return *it->second;
}

Task& Kernel::CurrentTask() {
  const TaskId id = current();
  PPCMM_CHECK_MSG(id.value != 0, "no current task");
  return task(id);
}

void Kernel::SwitchTo(TaskId id) {
  Task& next = task(id);
  for (uint32_t cpu = 0; cpu < smp_.ncpus; ++cpu) {
    PPCMM_CHECK_MSG(cpu == smp_.current_cpu || smp_.running[cpu] != id,
                    "task " << id.value << " is already running on CPU " << cpu);
  }
  CycleScope switch_scope(machine_, AttrCause::kContextSwitch);
  HwCounters& counters = machine_.counters();
  ++counters.context_switches;

  ChargeKernelWork(KernelOp::kContextSwitch);
  machine_.AddCycles(Cycles(config_.optimized_handlers ? costs_.ctxsw_body_opt
                                                       : costs_.ctxsw_body_unopt));

  if (injector_ != nullptr && injector_->ShouldFire(FaultClass::kZombieFlood)) {
    InjectZombieFlood();
  }

  // §10.2 extension: prefetch the incoming task's state so the restore loads below hit.
  if (config_.cache_preload_hints) {
    for (uint32_t line = 0; line < 8; ++line) {
      machine_.PrefetchData(next.task_struct_pa + line * 64);
    }
  }

  // Save the outgoing register state, restore the incoming — real stores/loads against the
  // task structures. The unoptimized path saves everything; the optimized path is lean.
  const uint32_t regs = config_.optimized_handlers ? 12 : 32;
  const TaskId previous = current();
  if (previous.value != 0) {
    const Task& prev = task(previous);
    for (uint32_t r = 0; r < regs; ++r) {
      KernelTouch(KernelVirtFromPhys(prev.task_struct_pa + (r % 8) * 64), AccessKind::kStore);
    }
  }
  for (uint32_t r = 0; r < regs; ++r) {
    KernelTouch(KernelVirtFromPhys(next.task_struct_pa + (r % 8) * 64), AccessKind::kLoad);
  }

  // Reload the user segment registers from the incoming task's VSIDs.
  machine_.AddCycles(Cycles(kFirstKernelSegment * 2));
  mmu_->segments().LoadUserSegments(vsids_.SegmentImage(next.mm->context));

  ++next.obs.switches_in;
  smp_.running[smp_.current_cpu] = id;
  machine_.attr().SetCurrentTask(id.value);
}

void Kernel::SwitchCpu(uint32_t cpu) {
  PPCMM_CHECK_MSG(cpu < smp_.ncpus, "SwitchCpu to CPU " << cpu << " of " << smp_.ncpus);
  if (cpu == smp_.current_cpu) {
    return;
  }
  // Pure spotlight move in the serialized interleaving model: redirect the machine's hot
  // paths, the MMU's bank, and the task bookkeeping at `cpu`. No simulated cycles — the
  // CPUs were always all "running"; the simulation just models one at a time.
  smp_.current_cpu = cpu;
  machine_.SetCurrentCpu(cpu);
  mmu_->SetCurrentCpu(cpu);
  machine_.attr().SetCurrentTask(current().value);
  // Any whole-TLB flush this CPU skipped while idle runs now, before it touches anything.
  flusher_.RunDeferredFlush(cpu);
}

TaskId Kernel::Fork(TaskId parent_id) {
  Task& parent = task(parent_id);
  CycleScope fork_scope(machine_, AttrCause::kFork);
  ChargeKernelWork(KernelOp::kFork);
  machine_.AddCycles(Cycles(costs_.fork_body));

  const TaskId child_id = CreateTask(parent.name + "+");
  Task& child = task(child_id);
  child.mm->vmas = parent.mm->vmas;
  child.text_page = parent.text_page;
  child.stack_page = parent.stack_page;

  // Collect the parent's present pages, then share each frame copy-on-write.
  std::vector<std::pair<EffAddr, LinuxPte>> pages;
  parent.mm->page_table->ForEachPresent(
      [&](EffAddr ea, const LinuxPte& pte) { pages.emplace_back(ea, pte); });

  DataMemCharger charger = mmu_->PageTableCharger();
  std::vector<EffAddr> write_protected;
  try {
  for (const auto& [ea, pte] : pages) {
    LinuxPte child_pte = pte;
    if (IsIoFrame(pte.frame)) {
      // Device apertures are shared outright: no refcount, no copy-on-write.
      child.mm->page_table->Map(ea, child_pte, &charger);
      machine_.AddCycles(Cycles(12));
      continue;
    }
    const std::optional<Vma> vma = child.mm->vmas.Find(ea.EffPageNumber());
    if (vma.has_value() && vma->backing == VmaBacking::kShm) {
      // MAP_SHARED semantics: the child writes the same frames, no write-protection.
      allocator_.AddRef(pte.frame);
      child.mm->page_table->Map(ea, child_pte, &charger);
      machine_.AddCycles(Cycles(12));
      continue;
    }
    if (pte.writable) {
      parent.mm->page_table->Update(
          ea,
          [](LinuxPte& p) {
            p.writable = false;
            p.cow = true;
          },
          &charger);
      child_pte.writable = false;
      child_pte.cow = true;
      write_protected.push_back(ea);
    }
    allocator_.AddRef(pte.frame);
    child.mm->page_table->Map(ea, child_pte, &charger);
    machine_.AddCycles(Cycles(12));  // the per-page loop body
  }
  } catch (const OutOfMemoryError&) {
    // Mid-fork exhaustion: tear the half-built child down and drop the parent's stale
    // (now write-protected) translations before reporting. The parent keeps running — its
    // COW-marked pages simply take a sole-owner fault on the next write.
    machine_.attr().RecordInstant(AttrEventKind::kOomRollback, machine_.Now().value);
    flusher_.FlushContext(*parent.mm, current() == parent_id);
    Exit(child_id);
    throw;
  }

  // The parent's cached translations for the write-protected pages are now stale.
  flusher_.FlushPages(*parent.mm, write_protected, current() == parent_id);
  return child_id;
}

void Kernel::Exec(TaskId id, const ExecImage& image) {
  Task& target = task(id);
  CycleScope exec_scope(machine_, AttrCause::kExec);
  ChargeKernelWork(KernelOp::kExec);
  machine_.AddCycles(Cycles(costs_.exec_body));

  Mm& mm = *target.mm;
  // Drop every cached translation of the old image, then its pages and VMAs.
  flusher_.FlushContext(mm, current() == id);
  ReleaseAllPages(mm);
  mm.vmas.Clear();

  // New image: text, heap, stack.
  const uint32_t text_start = kUserTextBase >> kPageShift;
  mm.vmas.Insert(Vma{.start_page = text_start,
                     .end_page = text_start + image.text_pages,
                     .writable = false,
                     .backing = image.text_file.has_value() ? VmaBacking::kFile
                                                            : VmaBacking::kAnonymous,
                     .file_id = image.text_file.value_or(FileId{}).value,
                     .file_page_offset = 0});
  const uint32_t data_start = kUserDataBase >> kPageShift;
  mm.vmas.Insert(Vma{.start_page = data_start,
                     .end_page = data_start + image.data_pages,
                     .writable = true,
                     .backing = VmaBacking::kAnonymous});
  const uint32_t stack_end = kUserStackTop >> kPageShift;
  mm.vmas.Insert(Vma{.start_page = stack_end - image.stack_pages,
                     .end_page = stack_end,
                     .writable = true,
                     .backing = VmaBacking::kAnonymous});

  target.text_page = text_start;
  target.stack_page = stack_end - 1;
}

void Kernel::Exit(TaskId id) {
  Task& target = task(id);
  Mm& mm = *target.mm;
  CycleScope exit_scope(machine_, AttrCause::kExit);

  machine_.AddCycles(Cycles(300));
  flusher_.RetireContext(mm, current() == id);
  ReleaseAllPages(mm);

  for (uint32_t cpu = 0; cpu < smp_.ncpus; ++cpu) {
    if (smp_.running[cpu] == id) {
      smp_.running[cpu] = TaskId{0};
      if (cpu == smp_.current_cpu) {
        machine_.attr().SetCurrentTask(0);
      }
    }
  }
  tasks_.erase(id.value);
}

// ---- syscalls ----

void Kernel::EnterSyscall(KernelOp op) {
  ++machine_.counters().syscalls;
  ChargeKernelWork(op);
  machine_.AddCycles(Cycles(config_.optimized_handlers ? costs_.syscall_body_opt
                                                       : costs_.syscall_body_unopt));
}

void Kernel::NullSyscall() {
  CycleScope syscall_scope(machine_, AttrCause::kSyscall);
  EnterSyscall(KernelOp::kSyscallEntry);
}

uint32_t Kernel::Mmap(uint32_t page_count, const MmapOptions& options) {
  PPCMM_CHECK(page_count > 0);
  Task& current = CurrentTask();
  Mm& mm = *current.mm;
  CycleScope syscall_scope(machine_, AttrCause::kSyscall);
  EnterSyscall(KernelOp::kMmapCall);

  uint32_t start;
  if (options.fixed_page.has_value()) {
    start = *options.fixed_page;
    if (!mm.vmas.RangeIsFree(start, page_count)) {
      // MAP_FIXED over an existing mapping: unmap — and therefore flush — what's there.
      // This is the operation whose latency §7 chases from 3240 µs down to 41 µs.
      flusher_.FlushRange(mm, start, page_count, /*mm_is_current=*/true);
      ReleaseRange(mm, start, page_count);
      mm.vmas.Remove(start, page_count);
    }
  } else {
    start = mm.vmas.FindFreeRange(kUserMmapBase >> kPageShift, page_count);
  }

  mm.vmas.Insert(Vma{.start_page = start,
                     .end_page = start + page_count,
                     .writable = options.writable,
                     .backing = options.file.has_value() ? VmaBacking::kFile
                                                         : VmaBacking::kAnonymous,
                     .file_id = options.file.value_or(FileId{}).value,
                     .file_page_offset = options.file_page_offset});
  return start;
}

void Kernel::Munmap(uint32_t start_page, uint32_t page_count) {
  Task& current = CurrentTask();
  Mm& mm = *current.mm;
  CycleScope syscall_scope(machine_, AttrCause::kSyscall);
  EnterSyscall(KernelOp::kMmapCall);

  flusher_.FlushRange(mm, start_page, page_count, /*mm_is_current=*/true);
  ReleaseRange(mm, start_page, page_count);
  mm.vmas.Remove(start_page, page_count);
}

uint32_t Kernel::MapFramebuffer() {
  Task& current = CurrentTask();
  Mm& mm = *current.mm;
  CycleScope syscall_scope(machine_, AttrCause::kSyscall);
  EnterSyscall(KernelOp::kMmapCall);

  const uint32_t start = kUserFramebufferBase >> kPageShift;
  const uint32_t pages = kFramebufferBytes / kPageSize;
  mm.vmas.Insert(Vma{.start_page = start,
                     .end_page = start + pages,
                     .writable = true,
                     .backing = VmaBacking::kIo,
                     .io_first_frame = framebuffer_first_frame_});

  if (config_.framebuffer_bat) {
    // The §5.1 idea: a user-visible, cache-inhibited data BAT over the aperture. Accesses
    // then bypass the TLB and HTAB entirely; the VMA above never faults.
    SetFramebufferBat(true);
  }
  return start;
}

void Kernel::SetFramebufferBat(bool on) {
  if (on) {
    const BatEntry bat{.valid = true,
                       .eff_base = kUserFramebufferBase,
                       .block_bytes = kFramebufferBytes,
                       .phys_base = framebuffer_first_frame_ << kPageShift,
                       .cache_inhibited = true,
                       .supervisor_only = false};
    mmu_->dbats().Set(1, bat);
  } else {
    mmu_->dbats().Clear(1);
  }
}

void Kernel::ForEachLiveTranslation(const std::function<void(const LiveTranslation&)>& fn) {
  // Reverse map: user VSID -> (owner, segment). Rebuilt per call; this is a verification
  // walk, not a simulated path, so nothing is charged.
  std::map<uint32_t, std::pair<TaskId, uint32_t>> user_vsids;
  for (auto& [id, t] : tasks_) {
    for (uint32_t seg = 0; seg < kFirstKernelSegment; ++seg) {
      user_vsids.emplace(vsids_.UserVsid(t->mm->context, seg).value,
                         std::make_pair(t->id, seg));
    }
  }
  const auto resolve = [&](Vsid vsid, uint32_t page_index) -> std::optional<LiveTranslation> {
    LiveTranslation lt;
    if (VsidSpace::IsKernelVsid(vsid)) {
      for (uint32_t seg = kFirstKernelSegment; seg < kNumSegments; ++seg) {
        if (VsidSpace::KernelVsid(seg) == vsid) {
          lt.is_kernel = true;
          lt.owner = TaskId{0};
          lt.ea_page = (seg << kPageIndexBits) | page_index;
          return lt;
        }
      }
      return std::nullopt;
    }
    const auto it = user_vsids.find(vsid.value);
    if (it == user_vsids.end()) {
      return std::nullopt;  // zombie: retired VSID, architecturally unreachable
    }
    lt.is_kernel = false;
    lt.owner = it->second.first;
    lt.ea_page = (it->second.second << kPageIndexBits) | page_index;
    return lt;
  };
  const auto visit_tlb = [&](const Tlb& tlb, LiveTranslation::Tier tier) {
    tlb.ForEachValid([&](const TlbEntry& entry) {
      std::optional<LiveTranslation> lt = resolve(entry.vsid, entry.page_index);
      if (!lt.has_value()) {
        return;
      }
      lt->tier = tier;
      lt->frame = entry.frame;
      lt->writable = entry.writable;
      lt->changed = entry.changed;
      fn(*lt);
    });
  };
  for (uint32_t cpu = 0; cpu < smp_.ncpus; ++cpu) {
    if (smp_.flush_pending[cpu] != 0) {
      // The CPU owes a deferred whole-TLB flush: its TLB content is logically invalid and
      // will be wiped before anything runs there, so nothing in it counts as live.
      continue;
    }
    visit_tlb(mmu_->itlb(cpu), LiveTranslation::Tier::kItlb);
    visit_tlb(mmu_->dtlb(cpu), LiveTranslation::Tier::kDtlb);
  }
  if (mmu_->policy().UsesHtab()) {
    const HashTable& htab = mmu_->htab();
    for (uint32_t pteg = 0; pteg < htab.num_ptegs(); ++pteg) {
      for (uint32_t slot = 0; slot < kPtesPerPteg; ++slot) {
        const HashedPte& pte = htab.At(pteg, slot);
        if (!pte.valid) {
          continue;
        }
        std::optional<LiveTranslation> lt = resolve(pte.vsid, pte.page_index);
        if (!lt.has_value()) {
          continue;
        }
        lt->tier = LiveTranslation::Tier::kHtab;
        lt->frame = pte.rpn;
        lt->writable = pte.writable;
        lt->changed = pte.changed;
        fn(*lt);
      }
    }
  }
}

void Kernel::ReleaseFrame(uint32_t frame) {
  if (IsIoFrame(frame)) {
    return;  // aperture frames are not allocator-owned
  }
  mem_.FreePage(frame);
}

void Kernel::ReleaseRange(Mm& mm, uint32_t start_page, uint32_t page_count) {
  // mmu-lint-deferred-flush(FLUSH-CONTRACT-029): every caller runs FlushRange over the same
  // range before zapping the PTEs (Munmap, MAP_FIXED Mmap), so the TLBs are already clean
  for (uint32_t i = 0; i < page_count; ++i) {
    machine_.AddCycles(Cycles(2));  // the zap loop itself
    const EffAddr ea = EffAddr::FromPage(start_page + i);
    const std::optional<LinuxPte> pte = mm.page_table->LookupQuiet(ea);
    if (pte.has_value() && pte->present) {
      mm.page_table->Unmap(ea, nullptr);
      ReleaseFrame(pte->frame);
      machine_.AddCycles(Cycles(8));
    }
  }
}

void Kernel::ReleaseAllPages(Mm& mm) {
  // mmu-lint-deferred-flush(FLUSH-CONTRACT-029): every caller flushes or retires the whole
  // context before zapping the PTEs (Exec, Exit), so the TLBs are already clean
  std::vector<std::pair<EffAddr, LinuxPte>> pages;
  mm.page_table->ForEachPresent(
      [&](EffAddr ea, const LinuxPte& pte) { pages.emplace_back(ea, pte); });
  for (const auto& [ea, pte] : pages) {
    mm.page_table->Unmap(ea, nullptr);
    ReleaseFrame(pte.frame);
  }
}

void Kernel::FileRead(FileId file, uint32_t offset_bytes, uint32_t length, EffAddr user_dst) {
  FileIo(file, offset_bytes, length, user_dst, /*to_user=*/true);
}

void Kernel::FileWrite(FileId file, uint32_t offset_bytes, uint32_t length, EffAddr user_src) {
  FileIo(file, offset_bytes, length, user_src, /*to_user=*/false);
}

void Kernel::FileIo(FileId file, uint32_t offset_bytes, uint32_t length, EffAddr user,
                    bool to_user) {
  CycleScope io_scope(machine_, AttrCause::kFileIo);
  EnterSyscall(KernelOp::kFileIo);
  uint32_t done = 0;
  while (done < length) {
    const uint32_t file_page = (offset_bytes + done) >> kPageShift;
    const uint32_t in_page = (offset_bytes + done) & kPageOffsetMask;
    const uint32_t chunk = std::min(length - done, kPageSize - in_page);
    bool miss = false;
    const uint32_t frame = page_cache_.GetPage(file, file_page, &miss);
    if (miss) {
      SimulateIoWait(Cycles(costs_.disk_latency_cycles));
    }
    CopyUserKernel(user + done, PhysAddr::FromFrame(frame, in_page), chunk, to_user);
    done += chunk;
  }
}

uint32_t Kernel::ShmCreate(uint32_t pages) {
  PPCMM_CHECK(pages > 0);
  CycleScope syscall_scope(machine_, AttrCause::kSyscall);
  EnterSyscall(KernelOp::kMmapCall);
  ShmSegment segment;
  segment.frames.reserve(pages);
  try {
    for (uint32_t i = 0; i < pages; ++i) {
      segment.frames.push_back(mem_.GetFreePage());
    }
  } catch (const OutOfMemoryError&) {
    // Partial allocation: give back what we got; the segment never existed.
    machine_.attr().RecordInstant(AttrEventKind::kOomRollback, machine_.Now().value);
    for (const uint32_t frame : segment.frames) {
      mem_.FreePage(frame);
    }
    throw;
  }
  const uint32_t id = next_shm_++;
  shm_segments_.emplace(id, std::move(segment));
  return id;
}

uint32_t Kernel::ShmAttach(uint32_t shm_id) {
  auto it = shm_segments_.find(shm_id);
  PPCMM_CHECK_MSG(it != shm_segments_.end(), "attach to unknown shm segment " << shm_id);
  Task& current = CurrentTask();
  Mm& mm = *current.mm;
  CycleScope syscall_scope(machine_, AttrCause::kSyscall);
  EnterSyscall(KernelOp::kMmapCall);

  const uint32_t pages = static_cast<uint32_t>(it->second.frames.size());
  const uint32_t start = mm.vmas.FindFreeRange(kUserMmapBase >> kPageShift, pages);
  mm.vmas.Insert(Vma{.start_page = start,
                     .end_page = start + pages,
                     .writable = true,
                     .backing = VmaBacking::kShm,
                     .file_id = shm_id});
  ++it->second.attach_count;
  return start;
}

void Kernel::ShmDetach(uint32_t start_page, uint32_t pages) {
  Task& current = CurrentTask();
  const std::optional<Vma> vma = current.mm->vmas.Find(start_page);
  PPCMM_CHECK_MSG(vma.has_value() && vma->backing == VmaBacking::kShm,
                  "ShmDetach on a non-shm range");
  const uint32_t shm_id = vma->file_id;
  Munmap(start_page, pages);
  auto it = shm_segments_.find(shm_id);
  if (it != shm_segments_.end() && it->second.attach_count > 0) {
    --it->second.attach_count;
  }
}

void Kernel::ShmDestroy(uint32_t shm_id) {
  auto it = shm_segments_.find(shm_id);
  PPCMM_CHECK_MSG(it != shm_segments_.end(), "destroy of unknown shm segment " << shm_id);
  PPCMM_CHECK_MSG(it->second.attach_count == 0,
                  "shm segment " << shm_id << " still has attachments");
  CycleScope syscall_scope(machine_, AttrCause::kSyscall);
  for (const uint32_t frame : it->second.frames) {
    mem_.FreePage(frame);
  }
  shm_segments_.erase(it);
}

uint32_t Kernel::CreatePipe() {
  CycleScope pipe_scope(machine_, AttrCause::kPipe);
  const uint32_t id = next_pipe_++;
  pipes_[id] = PipeState{.buffer_frame = mem_.GetFreePage(), .used = 0, .read_pos = 0};
  return id;
}

uint32_t Kernel::PipeWrite(uint32_t pipe_id, EffAddr user_src, uint32_t length) {
  auto it = pipes_.find(pipe_id);
  PPCMM_CHECK_MSG(it != pipes_.end(), "write to unknown pipe " << pipe_id);
  PipeState& pipe = it->second;
  CycleScope pipe_scope(machine_, AttrCause::kPipe);
  EnterSyscall(KernelOp::kPipe);
  machine_.AddCycles(Cycles(config_.optimized_handlers ? costs_.pipe_wakeup_opt
                                                       : costs_.pipe_wakeup_unopt));

  const uint32_t n = std::min(length, PipeState::kCapacity - pipe.used);
  uint32_t done = 0;
  while (done < n) {
    const uint32_t write_pos = (pipe.read_pos + pipe.used + done) % PipeState::kCapacity;
    const uint32_t chunk = std::min(n - done, PipeState::kCapacity - write_pos);
    CopyUserKernel(user_src + done, PhysAddr::FromFrame(pipe.buffer_frame, write_pos), chunk,
                   /*to_user=*/false);
    done += chunk;
  }
  pipe.used += n;
  return n;
}

uint32_t Kernel::PipeRead(uint32_t pipe_id, EffAddr user_dst, uint32_t length) {
  auto it = pipes_.find(pipe_id);
  PPCMM_CHECK_MSG(it != pipes_.end(), "read from unknown pipe " << pipe_id);
  PipeState& pipe = it->second;
  CycleScope pipe_scope(machine_, AttrCause::kPipe);
  EnterSyscall(KernelOp::kPipe);
  machine_.AddCycles(Cycles(config_.optimized_handlers ? costs_.pipe_wakeup_opt
                                                       : costs_.pipe_wakeup_unopt));

  const uint32_t n = std::min(length, pipe.used);
  uint32_t done = 0;
  while (done < n) {
    const uint32_t chunk = std::min(n - done, PipeState::kCapacity - pipe.read_pos);
    CopyUserKernel(user_dst + done, PhysAddr::FromFrame(pipe.buffer_frame, pipe.read_pos),
                   chunk, /*to_user=*/true);
    pipe.read_pos = (pipe.read_pos + chunk) % PipeState::kCapacity;
    done += chunk;
  }
  pipe.used -= n;
  return n;
}

// ---- user-mode execution ----

void Kernel::RepairFault(Task& task, EffAddr ea, AccessKind kind, AccessOutcome outcome) {
  switch (outcome) {
    case AccessOutcome::kOk:
      PPCMM_CHECK_MSG(false, "no fault to repair at 0x" << std::hex << ea.value);
      break;
    case AccessOutcome::kPageFault:
      HandlePageFault(task, ea, kind);
      break;
    case AccessOutcome::kProtectionFault: {
      const std::optional<LinuxPte> pte = task.mm->page_table->LookupQuiet(ea);
      PPCMM_CHECK_MSG(pte.has_value() && pte->present && pte->cow,
                      "write to a genuinely read-only mapping at 0x" << std::hex << ea.value);
      HandleCowFault(task, ea);
      break;
    }
  }
}

void Kernel::UserTouch(EffAddr ea, AccessKind kind) {
  Task& current = CurrentTask();
  for (uint32_t attempt = 0; attempt < 8; ++attempt) {
    const AccessOutcome outcome = mmu_->Access(ea, kind);
    if (outcome == AccessOutcome::kOk) {
      return;
    }
    RepairFault(current, ea, kind, outcome);
  }
  PPCMM_CHECK_MSG(false, "fault loop did not converge at 0x" << std::hex << ea.value);
}

void Kernel::UserTouchRun(EffAddr start, uint32_t stride, uint32_t count, AccessKind kind) {
  PPCMM_CHECK(stride > 0);
  Task& current = CurrentTask();
  uint32_t done = 0;
  uint32_t attempts = 0;  // faults taken at the current access without progress
  while (done < count) {
    AccessOutcome outcome = AccessOutcome::kOk;
    const uint32_t n =
        mmu_->AccessRun(start + done * stride, stride, count - done, kind, &outcome);
    done += n;
    if (done >= count) {
      return;
    }
    if (n > 0) {
      attempts = 0;  // progress: the convergence bound is per faulting access
    }
    // The run stopped on a fault at access `done`; repair exactly as UserTouch would and
    // resume the run from the faulting access.
    const EffAddr ea = start + done * stride;
    RepairFault(current, ea, kind, outcome);
    ++attempts;
    PPCMM_CHECK_MSG(attempts < 8, "fault loop did not converge at 0x" << std::hex << ea.value);
  }
}

void Kernel::UserTouchRange(EffAddr start, uint32_t bytes, uint32_t stride, AccessKind kind) {
  PPCMM_CHECK(stride > 0);
  if (bytes == 0) {
    return;
  }
  UserTouchRun(start, stride, (bytes - 1) / stride + 1, kind);
}

void Kernel::UserExecute(uint32_t instructions) {
  // mmu-lint-ambient(ATTR-COVER-032): user-mode instruction time IS the ambient bucket —
  // the profiler attributes kernel overhead, not the workload's own execution
  Task& current = CurrentTask();
  const uint32_t line = machine_.config().icache.line_bytes;
  const uint32_t lines_per_page = kPageSize / line;
  // One instruction fetch per 8 instructions (32-byte lines hold 8 four-byte instructions),
  // walking sequentially through the task's code page: one line-stride run up to where the
  // line cursor wraps at the page end, then the next from the page start.
  uint32_t fetches = instructions / 8 + (instructions % 8 != 0 ? 1 : 0);
  while (fetches > 0) {
    const uint32_t line_index = static_cast<uint32_t>(user_fetch_cursor_) % lines_per_page;
    const uint32_t n = std::min(fetches, lines_per_page - line_index);
    UserTouchRun(EffAddr::FromPage(current.text_page, line_index * line), line, n,
                 AccessKind::kInstructionFetch);
    user_fetch_cursor_ += n;
    fetches -= n;
  }
  machine_.AddCycles(Cycles(instructions));
}

// ---- idle ----

uint64_t Kernel::IdleIterationBound(bool reclaim) const {
  const MachineConfig& machine = machine_.config();
  const MemoryTiming& timing = machine.memory;
  // The fetch as a hit (the chunk prices its first fetch as a miss on its own), the loop,
  // and the spin, which an iteration without reclaim pays when the zeroer declines.
  uint64_t bound = 1 + kIdleLoopCycles;
  if (!reclaim) {
    bound += kIdleSpinCycles;
  } else {
    const uint64_t ptegs =
        std::min(config_.idle_reclaim_ptegs_per_pass, mmu_->htab().num_ptegs());
    const uint64_t slots = ptegs * kPtesPerPteg;
    if (mmu_->policy().cache_page_tables) {
      // Every line of the pass missing onto a dirty victim (a pass that wraps covers two
      // ranges, so up to two partial lines more), then 1 cycle per slot read and per
      // clearing store: a store follows the read of its own slot, so it hits.
      const uint64_t line = machine.dcache.line_bytes;
      const uint64_t lines = (slots * kPteBytes + line - 1) / line + 2;
      bound += lines * (timing.line_fill_cycles + timing.writeback_cycles) + 2 * slots;
    } else {
      bound += 2 * slots * timing.single_beat_cycles;
    }
  }
  // A zeroer that declines now declines for the whole chunk: only allocations and frees
  // change its answer, and an idle iteration's zero is its only allocation.
  if (!mem_.IdleZeroDeclines()) {
    bound += mem_.IdleZeroCyclesBound();
  }
  return bound;
}

void Kernel::RunIdle(Cycles budget) {
  CycleScope idle_scope(machine_, AttrCause::kIdleLoop);
  HwCounters& counters = machine_.counters();
  ++counters.idle_invocations;
  const Cycles deadline = machine_.Now() + budget;
  DataMemCharger pt_charger = mmu_->PageTableCharger();
  const EffAddr idle_text(kKernelVirtualBase + kIdleTextPage * kPageSize);
  const bool reclaim = config_.idle_zombie_reclaim && mmu_->policy().UsesHtab();
  const bool zeroing = config_.idle_zero != IdleZeroPolicy::kOff;
  const uint32_t ptegs_per_pass = config_.idle_reclaim_ptegs_per_pass;
  // Iterations may run in chunks of n, each kind of work grouped in iteration order: the
  // fetches go to the I-cache and the ITLB or a BAT, the sweep to the D-cache and the
  // HTAB, a zero to the D-cache (or to neither cache when uncached), and nothing in the
  // loop changes the VSID oracle or the zeroer's answer. Not for the uncached (§10.1) idle
  // task, whose physical fetch has no translation to replay; not with the ledger on and an
  // iteration opening a reclaim or zero scope (it records each one); and not when a cached
  // zero would interleave with a cached sweep in the D-cache.
  const bool may_chunk =
      !config_.uncached_idle_task && !(machine_.attr().enabled() && (reclaim || zeroing)) &&
      !(reclaim && config_.idle_zero == IdleZeroPolicy::kCached &&
        mmu_->policy().cache_page_tables);
  // What a chunk's first fetch may cost beyond a hit: the idle text is mapped cacheable,
  // and the later fetches hit the line the first one leaves.
  const uint64_t first_miss = machine_.config().memory.line_fill_cycles - 1;

  while (machine_.Now() < deadline) {
    const Cycles start = machine_.Now();
    uint32_t n = 1;
    uint64_t bound = 0;
    std::optional<Mmu::SpanTarget> span;
    if (may_chunk) {
      // Iteration k of a chunk starts at most first_miss + k × bound cycles in, so all n
      // start before the deadline, as the loop would start them.
      bound = IdleIterationBound(reclaim);
      const uint64_t left = (deadline - start).value;
      uint64_t chunk = left > first_miss ? (left - first_miss + bound - 1) / bound : 1;
      if (reclaim && ptegs_per_pass > 0) {
        // One contiguous sweep covers the n passes: at most the whole table, so its cursor
        // wraps at most once, as the passes' would.
        chunk = std::min<uint64_t>(chunk, mmu_->htab().num_ptegs() / ptegs_per_pass);
      }
      n = static_cast<uint32_t>(std::min<uint64_t>(chunk, UINT32_MAX));
      if (n >= 2) {
        span = mmu_->ReplaySpan(idle_text, AccessKind::kInstructionFetch, n);
      }
    }
    // The idle loop's own instruction fetches — through the caches normally, around them
    // when the §10.1 extension is enabled.
    if (span.has_value()) {
      machine_.TouchInstructionRepeat(PhysAddr::FromFrame(span->frame), n, span->cached);
    } else {
      n = 1;
      if (config_.uncached_idle_task) {
        machine_.TouchInstruction(PhysAddr::FromFrame(kIdleTextPage), /*cached=*/false);
      } else {
        KernelTouch(idle_text, AccessKind::kInstructionFetch);
      }
    }
    machine_.AddCycles(Cycles(n * kIdleLoopCycles));

    if (reclaim) {
      CycleScope reclaim_scope(machine_, AttrCause::kIdleReclaim);
      counters.zombies_reclaimed +=
          mmu_->htab().ReclaimZombies(n * ptegs_per_pass, vsids_, pt_charger);
    }
    uint32_t zeroed = 0;
    if (zeroing) {
      CycleScope zero_scope(machine_, AttrCause::kIdleZero);
      while (zeroed < n && mem_.IdleZeroOnePage()) {
        ++zeroed;
      }
    }
    // An iteration that found no work pays the spin; one with a reclaim pass always works.
    if (!reclaim && zeroed < n) {
      machine_.AddCycles(Cycles((n - zeroed) * kIdleSpinCycles));
    }
    PPCMM_CHECK_MSG(n == 1 || machine_.Now() - start <= Cycles(first_miss + n * bound),
                    "idle chunk exceeded its per-iteration bound");
  }
}

// ---- faults ----

void Kernel::HandlePageFault(Task& task, EffAddr ea, AccessKind kind) {
  Mm& mm = *task.mm;
  const uint32_t page = ea.EffPageNumber();
  // The VMA lookup is uncharged and side-effect free, so it can run early to classify the
  // fault for attribution; the handler's simulated costs all land inside the scope.
  const std::optional<Vma> vma = mm.vmas.Find(page);
  AttrCause fault_cause = AttrCause::kFaultAnon;
  if (vma.has_value()) {
    switch (vma->backing) {
      case VmaBacking::kAnonymous: fault_cause = AttrCause::kFaultAnon; break;
      case VmaBacking::kFile: fault_cause = AttrCause::kFaultFile; break;
      case VmaBacking::kShm: fault_cause = AttrCause::kFaultShm; break;
      case VmaBacking::kIo: fault_cause = AttrCause::kFaultIo; break;
    }
  }
  CycleScope fault_scope(machine_, fault_cause);

  HwCounters& counters = machine_.counters();
  ++counters.page_faults;
  ++task.obs.page_faults;
  ChargeKernelWork(KernelOp::kFault);
  machine_.AddCycles(Cycles(config_.optimized_handlers ? costs_.fault_body_opt
                                                       : costs_.fault_body_unopt));

  PPCMM_CHECK_MSG(vma.has_value(), "page fault outside any VMA at 0x" << std::hex << ea.value
                                                                      << " (task " << std::dec
                                                                      << task.id.value << ")");
  PPCMM_CHECK_MSG(!IsWrite(kind) || vma->writable,
                  "write fault on read-only VMA at 0x" << std::hex << ea.value);

  DataMemCharger charger = mmu_->PageTableCharger();
  LinuxPte pte{.present = true,
               .writable = false,
               .user = true,
               .accessed = true,
               .dirty = IsWrite(kind),
               .cache_inhibited = false,
               .cow = false,
               .frame = 0};
  // With eager C-bit marking the MMU installs writable translations pre-marked changed, so
  // no store will ever trap to set the Linux dirty bit — it must be set here, at fault time,
  // even when the faulting access is a load. Otherwise the first store is invisible and the
  // dirty bit is lost (the §7 trade the paper accepts: eager marking over-reports dirtiness).
  const bool eager_marking = mmu_->policy().eager_dirty_marking;
  const auto finalize_dirty = [eager_marking](LinuxPte& p) {
    p.dirty = p.dirty || (eager_marking && p.writable);
  };

  if (vma->backing == VmaBacking::kShm) {
    // Shared segment: everyone maps the same frame, writable, never COW.
    auto segment = shm_segments_.find(vma->file_id);
    PPCMM_CHECK_MSG(segment != shm_segments_.end(), "fault on a destroyed shm segment");
    const uint32_t frame = segment->second.frames[page - vma->start_page];
    allocator_.AddRef(frame);
    pte.frame = frame;
    pte.writable = vma->writable;
    finalize_dirty(pte);
    mm.page_table->Map(ea, pte, &charger);
    return;
  }
  if (vma->backing == VmaBacking::kIo) {
    // Device aperture: a fixed physical frame, always cache inhibited, never refcounted.
    pte.frame = vma->io_first_frame + (page - vma->start_page);
    pte.writable = vma->writable;
    pte.cache_inhibited = true;
    finalize_dirty(pte);
    mm.page_table->Map(ea, pte, &charger);
    return;
  }
  if (vma->backing == VmaBacking::kFile) {
    const uint32_t file_page = vma->file_page_offset + (page - vma->start_page);
    bool miss = false;
    const uint32_t cache_frame = page_cache_.GetPage(FileId{vma->file_id}, file_page, &miss);
    if (miss) {
      SimulateIoWait(Cycles(costs_.disk_latency_cycles));
    }
    if (vma->writable) {
      // Private writable file mapping: give the task its own copy.
      const uint32_t frame = mem_.GetFreePage();
      CopyFrameCharged(frame, cache_frame);
      pte.frame = frame;
      pte.writable = true;
    } else {
      // Shared read-only (program text): map the page-cache frame directly.
      allocator_.AddRef(cache_frame);
      pte.frame = cache_frame;
    }
  } else {
    pte.frame = mem_.GetFreePage();
    pte.writable = vma->writable;
  }

  finalize_dirty(pte);
  mm.page_table->Map(ea, pte, &charger);
}

void Kernel::HandleCowFault(Task& task, EffAddr ea) {
  CycleScope cow_scope(machine_, AttrCause::kCowFault);
  HwCounters& counters = machine_.counters();
  ++counters.page_faults;
  ++task.obs.cow_faults;
  ChargeKernelWork(KernelOp::kFault);
  machine_.AddCycles(Cycles(config_.optimized_handlers ? costs_.fault_body_opt
                                                       : costs_.fault_body_unopt));

  Mm& mm = *task.mm;
  const std::optional<LinuxPte> pte = mm.page_table->LookupQuiet(ea);
  PPCMM_CHECK_MSG(pte.has_value() && pte->present && pte->cow, "COW fault without a COW PTE");

  DataMemCharger charger = mmu_->PageTableCharger();
  if (allocator_.RefCount(pte->frame) == 1) {
    // Sole owner: just restore write permission.
    mm.page_table->Update(
        ea,
        [](LinuxPte& p) {
          p.writable = true;
          p.cow = false;
          p.dirty = true;  // a COW fault is a store; under eager marking no trap follows
        },
        &charger);
  } else {
    const uint32_t frame = mem_.GetFreePage();
    {
      CycleScope copy_scope(machine_, AttrCause::kCowCopy);
      CopyFrameCharged(frame, pte->frame);
    }
    allocator_.DecRef(pte->frame);
    mm.page_table->Update(
        ea,
        [frame](LinuxPte& p) {
          p.frame = frame;
          p.writable = true;
          p.cow = false;
          p.dirty = true;  // ditto: the faulting store lands in the fresh copy
        },
        &charger);
  }
  // The read-only translation may still be cached in the TLB/HTAB; scrub it.
  flusher_.FlushPage(mm, ea);
}

// ---- plumbing ----

void Kernel::CopyFrameCharged(uint32_t dst_frame, uint32_t src_frame) {
  // Source load and destination store alternate per line: both frames index the same cache
  // sets, so the interleaving is what decides the LRU victims. Only the word loop, which
  // touches no cache, is charged once for the page.
  const uint32_t line = machine_.config().dcache.line_bytes;
  machine_.TouchDataPairRun(PhysAddr::FromFrame(src_frame), /*a_write=*/false,
                            /*a_cached=*/true, PhysAddr::FromFrame(dst_frame),
                            /*b_write=*/true, kPageSize / line);
  machine_.AddCycles(Cycles(uint64_t{kPageSize / line} * costs_.copy_cycles_per_line));
  machine_.memory().Copy(PhysAddr::FromFrame(dst_frame), PhysAddr::FromFrame(src_frame),
                         kPageSize);
}

void Kernel::CopyUserKernel(EffAddr user, PhysAddr kernel, uint32_t length, bool to_user) {
  const uint32_t line = machine_.config().dcache.line_bytes;
  const AccessKind kind = to_user ? AccessKind::kStore : AccessKind::kLoad;
  uint32_t done = 0;
  while (done < length) {
    // One user page at a time, its translation probed once and its bytes moved in one copy.
    const EffAddr page_ea = user + done;
    const uint32_t page_chunk = std::min(kPageSize - page_ea.PageOffset(), length - done);
    // One line the per-access way: the user side through UserTouch (which faults the page
    // in, breaks COW, sets a deferred C bit and loads the TLB as needed), then the kernel
    // side and the word loop.
    const auto copy_line = [&](uint32_t in_page) {
      UserTouch(page_ea + in_page, kind);
      machine_.TouchData(kernel + done + in_page, /*is_write=*/!to_user);
      machine_.AddCycles(Cycles(costs_.copy_cycles_per_line));
    };
    copy_line(0);
    const std::optional<PhysAddr> user_pa = mmu_->Probe(page_ea, kind);
    PPCMM_CHECK_MSG(user_pa.has_value(), "user page vanished mid-copy");

    // Every remaining user-side access would repeat the TLB hit the first line left, so
    // one span replays their translations. The user and kernel lines still alternate,
    // because both index the same D-cache sets; the word loop touches no cache, so it is
    // charged once. Without a span the lines go the per-access way.
    uint32_t in_page = std::min(line - page_ea.value % line, page_chunk);
    const uint32_t rest_lines = (page_chunk - in_page + line - 1) / line;
    const std::optional<Mmu::SpanTarget> span =
        rest_lines > 0 ? mmu_->ReplaySpan(page_ea + in_page, kind, rest_lines) : std::nullopt;
    if (span.has_value()) {
      machine_.TouchDataPairRun(
          PhysAddr::FromFrame(span->frame, (page_ea + in_page).PageOffset()),
          /*a_write=*/to_user, span->cached, kernel + done + in_page, /*b_write=*/!to_user,
          rest_lines);
      machine_.AddCycles(Cycles(uint64_t{rest_lines} * costs_.copy_cycles_per_line));
    } else {
      for (; in_page < page_chunk; in_page += line) {
        copy_line(in_page);
      }
    }

    // Functionally move the bytes so data-integrity tests hold end to end.
    if (to_user) {
      machine_.memory().Copy(*user_pa, kernel + done, page_chunk);
    } else {
      machine_.memory().Copy(kernel + done, *user_pa, page_chunk);
    }
    done += page_chunk;
  }
}

void Kernel::KernelTouch(EffAddr ea, AccessKind kind) {
  PPCMM_CHECK_MSG(ea.IsKernel(), "KernelTouch on user address 0x" << std::hex << ea.value);
  const AccessOutcome outcome = mmu_->Access(ea, kind);
  PPCMM_CHECK_MSG(outcome == AccessOutcome::kOk, "kernel access faulted at 0x" << std::hex
                                                                               << ea.value);
}

void Kernel::ChargeKernelWork(KernelOp op) {
  Footprint fp;
  switch (op) {
    case KernelOp::kSyscallEntry:
      fp = Footprint{.text_page = 0, .text_pages = 2, .data_offset = 0x0000, .data_refs = 2};
      break;
    case KernelOp::kContextSwitch:
      fp = Footprint{.text_page = 20, .text_pages = 3, .data_offset = 0x0400, .data_refs = 6};
      break;
    case KernelOp::kPipe:
      fp = Footprint{.text_page = 40, .text_pages = 3, .data_offset = 0x0800, .data_refs = 4};
      break;
    case KernelOp::kFileIo:
      fp = Footprint{.text_page = 60, .text_pages = 5, .data_offset = 0x0C00, .data_refs = 6};
      break;
    case KernelOp::kFault:
      fp = Footprint{.text_page = 80, .text_pages = 4, .data_offset = 0x1000, .data_refs = 4};
      break;
    case KernelOp::kFork:
      fp = Footprint{.text_page = 100, .text_pages = 8, .data_offset = 0x1400, .data_refs = 10};
      break;
    case KernelOp::kExec:
      fp = Footprint{.text_page = 110, .text_pages = 10, .data_offset = 0x1800, .data_refs = 10};
      break;
    case KernelOp::kMmapCall:
      fp = Footprint{.text_page = 130, .text_pages = 4, .data_offset = 0x1C00, .data_refs = 6};
      break;
    case KernelOp::kIdleLoop:
      fp = Footprint{.text_page = kIdleTextPage, .text_pages = 1, .data_offset = 0x2000,
                     .data_refs = 1};
      break;
  }
  // The original C paths are roughly twice the code and touch twice the data (§6.1).
  const uint32_t scale = config_.optimized_handlers ? 1 : 2;

  for (uint32_t p = 0; p < fp.text_pages * scale; ++p) {
    const uint32_t page = fp.text_page + p;
    const EffAddr code(kKernelVirtualBase + page * kPageSize);
    // Two instruction-cache lines per page of handler code executed.
    KernelTouch(code, AccessKind::kInstructionFetch);
    KernelTouch(code + 128, AccessKind::kInstructionFetch);
  }
  for (uint32_t d = 0; d < fp.data_refs * scale; ++d) {
    const EffAddr data(kKernelVirtualBase + kKernelDataPhysBase + fp.data_offset + d * 64);
    KernelTouch(data, (d % 3 == 0) ? AccessKind::kStore : AccessKind::kLoad);
  }
}

std::optional<Kernel::PteRoot> Kernel::RootFor(EffAddr ea) {
  if (ea.IsKernel()) {
    return PteRoot{.table = kernel_page_table_.get(),
                   .pgd_pointer = PhysAddr(kKernelMiscPhysBase)};
  }
  if (current().value == 0) {
    return std::nullopt;
  }
  Task& current = CurrentTask();
  return PteRoot{.table = current.mm->page_table.get(), .pgd_pointer = current.task_struct_pa};
}

void Kernel::MarkPteDirty(EffAddr ea, MemCharger& charger) {
  // mmu-lint-deferred-flush(FLUSH-CONTRACT-029): dirty-bit-only update — the translation
  // (frame, protection) is unchanged, so any cached TLB/HTAB copy remains correct
  const std::optional<PteRoot> root = RootFor(ea);
  if (!root.has_value()) {
    return;
  }
  const std::optional<LinuxPte> pte = root->table->LookupQuiet(ea);
  if (pte.has_value() && pte->present) {
    root->table->Update(ea, [](LinuxPte& p) { p.dirty = true; }, &charger);
  }
}

std::optional<PteWalkInfo> Kernel::WalkPte(EffAddr ea, MemCharger& charger) {
  const std::optional<PteRoot> root = RootFor(ea);
  if (!root.has_value()) {
    return std::nullopt;
  }
  // Load 1 of the paper's three: the PGD pointer out of the task structure.
  charger.Charge(root->pgd_pointer, /*is_write=*/false);
  const std::optional<LinuxPte> pte = root->table->Lookup(ea, charger);
  if (!pte.has_value() || !pte->present) {
    return std::nullopt;
  }
  return PteWalkInfo{.frame = pte->frame,
                     .writable = pte->writable,
                     .cache_inhibited = pte->cache_inhibited};
}

}  // namespace ppcmm
