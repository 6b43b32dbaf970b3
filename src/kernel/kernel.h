// The mini-kernel: a Linux/PPC-shaped process and memory-management core over the simulated
// machine and MMU.
//
// It implements exactly the mechanisms the paper optimizes — demand paging through the
// two-level PTE tree, copy-on-write fork, exec, mmap/munmap with range flushing, pipes,
// a page-cache file layer, context switching, and an idle task that can reclaim zombie HTAB
// entries (§7) and pre-zero pages (§9). Every kernel operation charges realistic instruction
// and data traffic against the machine, through the MMU, so kernel code competes with user
// code for TLB slots and cache lines (the §5.1 footprint effect).
//
// There is no scheduler: callers pick the next task themselves with SwitchTo (and the next
// CPU with SwitchCpu), as the LmBench benchmarks alternate a pipe's two ends. Every kernel
// call runs to completion on the caller's stack; nothing blocks or parks.

#ifndef PPCMM_SRC_KERNEL_KERNEL_H_
#define PPCMM_SRC_KERNEL_KERNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>
#include <memory>
#include <optional>
#include <string>

#include "src/kernel/flush.h"
#include "src/kernel/layout.h"
#include "src/kernel/mem_manager.h"
#include "src/kernel/mm.h"
#include "src/kernel/opt_config.h"
#include "src/kernel/page_cache.h"
#include "src/kernel/task.h"
#include "src/kernel/vsid_space.h"
#include "src/mmu/mmu.h"
#include "src/pagetable/page_allocator.h"
#include "src/sim/machine.h"
#include "src/sim/fault_injector.h"

namespace ppcmm {

// Tunable flat costs of kernel code paths, in cycles, beyond the charged memory traffic.
// The optimized values model the paper's hand-scheduled assembly paths (§6.1); the
// unoptimized values the original save-state-and-call-C paths.
struct KernelCostModel {
  uint32_t syscall_body_unopt = 1500;
  uint32_t syscall_body_opt = 140;
  uint32_t ctxsw_body_unopt = 1800;
  uint32_t ctxsw_body_opt = 260;
  uint32_t fault_body_unopt = 500;
  uint32_t fault_body_opt = 180;
  uint32_t fork_body = 1200;
  uint32_t exec_body = 2500;
  uint32_t copy_cycles_per_line = 24;  // word loop per 32-byte line, beyond cache accesses
  // sleep_on()/wake_up() pair charged on every pipe operation: the blocking handoff a real
  // kernel pays through its wait queue and run queue, the reason lat_pipe far exceeds
  // 2*syscall + ctxsw.
  uint32_t pipe_wakeup_unopt = 1300;
  uint32_t pipe_wakeup_opt = 600;
  uint32_t disk_latency_cycles = 60000;  // rotational+transfer wait per page-cache miss
};

// Options for Mmap().
struct MmapOptions {
  std::optional<uint32_t> fixed_page;  // map at exactly this page (unmapping what's there)
  std::optional<FileId> file;          // file backing (nullopt = anonymous)
  uint32_t file_page_offset = 0;
  bool writable = true;
};

// One live (reachable) cached translation, as enumerated by ForEachLiveTranslation: a valid
// TLB or HTAB entry whose VSID still resolves through a live context or a kernel segment.
// Zombie entries (retired VSIDs, §7) are skipped — they are architecturally unreachable.
struct LiveTranslation {
  enum class Tier { kItlb, kDtlb, kHtab };
  Tier tier = Tier::kItlb;
  bool is_kernel = false;
  TaskId owner;         // the task whose context the VSID belongs to; {0} for kernel entries
  uint32_t ea_page = 0;  // 20-bit effective page number in the owner's address space
  uint32_t frame = 0;
  bool writable = false;
  bool changed = false;  // the C bit
};

// The image installed by Exec().
struct ExecImage {
  uint32_t text_pages = 16;
  uint32_t data_pages = 8;
  uint32_t stack_pages = 4;
  std::optional<FileId> text_file;  // shared text via the page cache when set
};

// One pipe: a single kernel buffer page with circular head/tail.
struct PipeState {
  uint32_t buffer_frame = 0;
  uint32_t used = 0;
  uint32_t read_pos = 0;
  static constexpr uint32_t kCapacity = kPageSize;
};

// The kernel.
class Kernel : public PteBackingSource {
 public:
  Kernel(Machine& machine, const OptimizationConfig& config,
         const KernelCostModel& costs = KernelCostModel{});
  ~Kernel() override;

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // ---- process management ----

  // Creates a task with an empty address space and switches nothing.
  TaskId CreateTask(std::string name);
  // Installs a fresh image into `task` (flushing its old context) and makes its initial
  // VMAs: text, data (heap) and stack.
  void Exec(TaskId task, const ExecImage& image);
  // Copy-on-write fork of `parent`. Returns the child.
  TaskId Fork(TaskId parent);
  // Tears the task down, freeing its pages and flushing its context.
  void Exit(TaskId task);
  // Context switch to `task` (which must exist and not run on another CPU).
  void SwitchTo(TaskId task);

  // ---- SMP ----

  // Moves the execution spotlight to `cpu`: subsequent kernel calls, user touches, and
  // flushes run as that CPU, against its TLBs, caches, and segment registers. Each CPU
  // remembers its own current task. Charges nothing except any deferred whole-TLB flush
  // the CPU owes from shootdowns it skipped while idle (run here, on its own clock).
  void SwitchCpu(uint32_t cpu);
  uint32_t current_cpu() const { return smp_.current_cpu; }
  uint32_t ncpus() const { return smp_.ncpus; }
  // The task running on `cpu` ({0} = none: the CPU sits in its idle loop).
  TaskId CurrentOn(uint32_t cpu) const { return smp_.running[cpu]; }
  // True while `cpu` owes a deferred whole-TLB flush: its TLB content is logically
  // invalidated, the tlbia runs at its next switch-in. The auditor tolerates (and counts)
  // stale entries only on such CPUs.
  bool FlushPendingOn(uint32_t cpu) const { return smp_.flush_pending[cpu] != 0; }

  TaskId current() const { return smp_.running[smp_.current_cpu]; }
  Task& task(TaskId id);
  bool TaskExists(TaskId id) const { return tasks_.contains(id.value); }
  uint32_t TaskCount() const { return static_cast<uint32_t>(tasks_.size()); }

  // ---- syscalls ----

  // getpid()-shaped syscall: entry/exit and nothing else.
  void NullSyscall();

  // mmap(): returns the start page of the new mapping. With `fixed_page`, anything already
  // mapped there is unmapped first — this is the path whose flush cost the paper measured
  // at 3+ milliseconds before the lazy scheme (§7).
  uint32_t Mmap(uint32_t page_count, const MmapOptions& options = MmapOptions{});
  void Munmap(uint32_t start_page, uint32_t page_count);

  // Maps the framebuffer aperture into the current task at kUserFramebufferBase (always
  // cache inhibited). With the framebuffer_bat extension a user-visible data BAT covers the
  // aperture instead of PTEs, so the mapping consumes no TLB or HTAB entries (§5.1).
  // Returns the start page.
  uint32_t MapFramebuffer();
  // First physical frame of the framebuffer aperture.
  uint32_t FramebufferFirstFrame() const { return framebuffer_first_frame_; }
  bool IsIoFrame(uint32_t frame) const { return frame >= framebuffer_first_frame_; }

  // Programs (on) or clears (off) the user-visible framebuffer DBAT — the §5.1 extension's
  // register write, exposed so workloads can model an X server remapping its aperture
  // mid-run. Independent of any VMA state; translation spans read the BATs directly, so the
  // rewrite needs no invalidation.
  void SetFramebufferBat(bool on);
  // True while the framebuffer DBAT is programmed.
  bool FramebufferBatActive() { return mmu_->dbats().Get(1).valid; }

  // read()/write() through the page cache into/out of the current task's buffer.
  void FileRead(FileId file, uint32_t offset_bytes, uint32_t length, EffAddr user_dst);
  void FileWrite(FileId file, uint32_t offset_bytes, uint32_t length, EffAddr user_src);

  // ---- shared memory (SysV shm in miniature) ----

  // Creates a shared segment of zeroed pages; returns its id.
  uint32_t ShmCreate(uint32_t pages);
  // Maps segment `shm_id` into the current task (writable, shared — never COW).
  // Returns the start page.
  uint32_t ShmAttach(uint32_t shm_id);
  // Unmaps [start_page, +pages) like munmap (the segment itself survives).
  void ShmDetach(uint32_t start_page, uint32_t pages);
  // Destroys the segment, releasing its frames. Mappings must be detached first.
  void ShmDestroy(uint32_t shm_id);

  // pipes: each call moves what fits (write) or what is buffered (read) and returns the
  // bytes moved; callers switch between the two ends themselves.
  uint32_t CreatePipe();
  uint32_t PipeWrite(uint32_t pipe, EffAddr user_src, uint32_t length);
  uint32_t PipeRead(uint32_t pipe, EffAddr user_dst, uint32_t length);

  // ---- user-mode execution primitives ----

  // One user memory reference at `ea`, faulting pages in as needed.
  void UserTouch(EffAddr ea, AccessKind kind);
  // A page-grained access run: `count` references starting at `start`, each `stride`
  // bytes after the previous, faulting pages in mid-run as needed. Bit-identical to
  // calling UserTouch per access; the batched form lets the MMU replay whole translation
  // spans instead of re-validating every access (the workload-facing batching API).
  void UserTouchRun(EffAddr start, uint32_t stride, uint32_t count, AccessKind kind);
  // A strided run of user references (convenience for working-set loops).
  void UserTouchRange(EffAddr start, uint32_t bytes, uint32_t stride, AccessKind kind);
  // Models `instructions` of straight-line user execution: instruction fetches on the
  // current task's text page plus the base CPI.
  void UserExecute(uint32_t instructions);

  // ---- idle task ----

  // Runs the idle task for (at least) `budget` cycles: zombie reclaim and page zeroing per
  // policy, plain spinning otherwise (§7, §9, §10.1). One loop body charges n ≥ 1
  // iterations at a time, bit-identical to running them one by one: n = 1 is the plain
  // iteration, and n ≥ 2 takes a validated fetch span and fits IdleIterationBound.
  void RunIdle(Cycles budget);
  // Models a disk wait: the CPU sits in the idle task for the duration.
  void SimulateIoWait(Cycles wait) { RunIdle(wait); }

  // ---- component access (instrumentation, tests, benches) ----

  Machine& machine() { return machine_; }
  Mmu& mmu() { return *mmu_; }
  VsidSpace& vsids() { return vsids_; }
  PageTable& kernel_page_table() { return *kernel_page_table_; }

  // Visits every task (auditing / instrumentation).
  template <typename Fn>
  void ForEachTask(Fn&& fn) {
    for (auto& [id, t] : tasks_) {
      fn(*t);
    }
  }

  // Visits every *live* cached translation — valid TLB entries and (when the strategy uses
  // the HTAB) valid HTAB entries whose VSID resolves through a live context or a kernel
  // segment. Zombies are skipped. Uncharged and side-effect free; the differential fuzzer
  // cross-checks each visit against its oracle and the owner's PTE tree.
  void ForEachLiveTranslation(const std::function<void(const LiveTranslation&)>& fn);

  // Threads a fault injector through every registered site (MMU access path, HTAB inserts,
  // get_free_page, VSID allocation, context switches). Pass nullptr to disarm.
  void SetFaultInjector(FaultInjector* injector);

  MemManager& mem() { return mem_; }
  PageCache& page_cache() { return page_cache_; }
  FlushEngine& flusher() { return flusher_; }
  PageAllocator& allocator() { return allocator_; }
  const OptimizationConfig& config() const { return config_; }
  const KernelCostModel& costs() const { return costs_; }
  HwCounters& counters() { return machine_.counters(); }

  // PteBackingSource: walks the kernel or current-user page table for the MMU.
  std::optional<PteWalkInfo> WalkPte(EffAddr ea, MemCharger& charger) override;
  // PteBackingSource: records a deferred C-bit update in the owning Linux PTE.
  void MarkPteDirty(EffAddr ea, MemCharger& charger) override;

 private:
  // Kernel code regions, used to charge per-operation instruction/data footprints.
  enum class KernelOp {
    kSyscallEntry,
    kContextSwitch,
    kPipe,
    kFileIo,
    kFault,
    kFork,
    kExec,
    kMmapCall,
    kIdleLoop,
  };

  // Charges the instruction fetches and kernel data references of one operation. With the
  // original (unoptimized) handlers the footprint doubles — the C paths are fatter.
  void ChargeKernelWork(KernelOp op);
  // Syscall entry and exit: counts the syscall, charges `op`'s footprint and the handler
  // body. The caller opens its own CycleScope first.
  void EnterSyscall(KernelOp op);
  // One kernel memory reference at a kernel virtual address, through the MMU.
  void KernelTouch(EffAddr ea, AccessKind kind);
  // An upper bound on the cycles of each of the next idle iterations but a chunk's first
  // fetch, priced from the MemoryTiming: the fetch as a hit, the loop, the spin without
  // `reclaim` or the PTEG sweep at its worst with it, and, unless the zeroer declines, one
  // page zero at its worst.
  uint64_t IdleIterationBound(bool reclaim) const;

  void SetupKernelTranslation();
  // VSID epoch rollover: purges every user translation and reassigns all live contexts so
  // wrapped VSIDs can never alias pre-wrap ones (live or zombie).
  void HandleVsidRollover();
  // Fault injection: seed the HTAB with a burst of just-retired (zombie) PTEs.
  void InjectZombieFlood();
  void HandlePageFault(Task& task, EffAddr ea, AccessKind kind);
  // Repairs the fault a user access at `ea` stopped on: a page fault, or the COW break a
  // protection fault must be. The caller retries the access.
  void RepairFault(Task& task, EffAddr ea, AccessKind kind, AccessOutcome outcome);
  void HandleCowFault(Task& task, EffAddr ea);
  // Copies one frame to another (COW break, private file fault), charged through the data
  // cache.
  void CopyFrameCharged(uint32_t dst_frame, uint32_t src_frame);
  // read()/write() body: copies `length` bytes between the file and the user buffer.
  void FileIo(FileId file, uint32_t offset_bytes, uint32_t length, EffAddr user, bool to_user);
  // Copies between a user range and a kernel physical range, charged line by line.
  void CopyUserKernel(EffAddr user, PhysAddr kernel, uint32_t length, bool to_user);
  // Unmaps PTEs and releases frames in a page range (no flushing; callers flush first).
  void ReleaseRange(Mm& mm, uint32_t start_page, uint32_t page_count);
  // Unmaps every present PTE of `mm` and releases its frames (no flushing; callers flush
  // or retire the whole context first).
  void ReleaseAllPages(Mm& mm);
  // Drops one reference to a frame unless it belongs to an I/O aperture.
  void ReleaseFrame(uint32_t frame);
  Task& CurrentTask();
  // The page table that translates `ea` and the physical address of its PGD pointer (the
  // first load of a tree walk): the kernel's for kernel addresses, else the current task's;
  // nullopt when no task is current.
  struct PteRoot {
    PageTable* table = nullptr;
    PhysAddr pgd_pointer;
  };
  std::optional<PteRoot> RootFor(EffAddr ea);

  Machine& machine_;
  OptimizationConfig config_;
  KernelCostModel costs_;
  VsidSpace vsids_;
  PageAllocator allocator_;
  MemManager mem_;
  std::unique_ptr<Mmu> mmu_;
  std::unique_ptr<PageTable> kernel_page_table_;
  FlushEngine flusher_;
  PageCache page_cache_;

  std::map<uint32_t, std::unique_ptr<Task>> tasks_;
  std::map<uint32_t, PipeState> pipes_;
  struct ShmSegment {
    std::vector<uint32_t> frames;
    uint32_t attach_count = 0;
  };
  std::map<uint32_t, ShmSegment> shm_segments_;
  uint32_t next_shm_ = 1;
  uint32_t next_task_ = 1;
  uint32_t next_pipe_ = 1;
  uint32_t framebuffer_first_frame_ = 0;
  // SMP bookkeeping, shared with the flush engine: the task each CPU runs and its
  // flush-pending flag.
  SmpState smp_;
  uint64_t user_fetch_cursor_ = 0;
  FaultInjector* injector_ = nullptr;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_KERNEL_KERNEL_H_
