// Simulated-cycle attribution: a ledger that charges every cycle the machine spends to a
// cause taxonomy (instruction execution, TLB reload by strategy, hash-search depth, fault
// kind, flush flavor, idle work, ...) keyed secondarily by the running task.
//
// The ledger is the simulator's only observer: closing a scope is the single record any
// instrumentation makes. It lands in three views at once: the cycle cells below, a log2
// latency histogram per cause (MetricsRegistry's lat.<cause>.*), and the trace ring that
// Perfetto exports and failure reports dump. The ledger lives in the sim layer so hot
// headers stay obs-free; exporters (flamegraphs, JSON tables, diffs, Perfetto) live in
// src/obs. When disabled, the only cost on any hot path is one predictable branch, and
// enabling it never advances the clock or perturbs a single counter (tests/attr_test.cc
// and tests/obs_guard_test.cc prove both, bit-exactly).
//
// Causes nest: Mmu::Reload opens a reload scope, the hash search inside it opens a depth
// scope, so cycles land in a path like dtlb_reload_hw;hash_primary. An open scope is a
// stack of cause bytes; each distinct (path, task) pair owns one cell, and every
// Machine::AddCycles charges the innermost cell (or the task's base "instruction" cell
// when no scope is open). Attributed cycles therefore sum to total simulated cycles by
// construction — there is no "unknown" bucket to leak into.

#ifndef PPCMM_SRC_SIM_ATTR_H_
#define PPCMM_SRC_SIM_ATTR_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/sim/histogram.h"

namespace ppcmm {

// The cause taxonomy. Order is part of the export format only through AttrCauseName;
// appending is always safe.
enum class AttrCause : uint8_t {
  kInstruction = 0,  // base execution: no scope open (never "unknown" — this is the root)
  // TLB reloads, split by which TLB missed and which reload strategy served it.
  kItlbReloadHw,
  kItlbReloadSwHtab,
  kItlbReloadSwDirect,
  kDtlbReloadHw,
  kDtlbReloadSwHtab,
  kDtlbReloadSwDirect,
  // Hash-table search depth buckets (nested under a reload cause).
  kHashSearchPrimary,    // found in the primary PTEG (<= 8 memory references)
  kHashSearchSecondary,  // found only after probing the secondary PTEG
  kHashSearchMiss,       // both PTEGs searched, no match (leads to a page fault or walk)
  kDirtyBitUpdate,       // deferred C-bit store-back on first write
  // Page-fault kinds, by the backing of the faulting VMA.
  kFaultAnon,
  kFaultFile,
  kFaultShm,
  kFaultIo,
  kCowFault,  // copy-on-write break (the copy loop itself is kCowCopy nested inside)
  kCowCopy,
  // Flush flavors (§7 of the paper: per-page eager vs whole-context lazy).
  kRangeFlushEager,
  kContextFlushLazy,
  kVsidRollover,  // MMU-context generation rollover sweep
  // Idle-task work (§5/§6: the optimized idle loop).
  kIdleLoop,     // the idle loop shell (nested causes carve out reclaim/zero work)
  kIdleReclaim,  // zombie PTE reclaim pass
  kIdleZero,     // background page zeroing
  kContextSwitch,
  // Kernel entry points (coarse buckets for everything the taxonomy above doesn't refine).
  kSyscall,
  kFileIo,
  kPipe,
  kFork,
  kExec,
  kExit,
  // SMP: cross-CPU TLB shootdown rounds (IPI send/receive plus the remote invalidate)
  // and the deferred tlbia an idle-skipped CPU runs when it next schedules.
  kTlbShootdown,
  kNumCauses,  // sentinel, not a cause
};

// Stable snake_case name used in folded stacks, JSON exports, lat.<cause>.* metric names
// and trace dumps.
const char* AttrCauseName(AttrCause cause);

// What a ring event records. Only two events have no scope to close; they are zero-cycle
// instants with their own kind rather than causes, so the cause table (and every per-cause
// export) stays the same size.
enum class AttrEventKind : uint8_t {
  kScope = 0,      // a CycleScope closed: cause, depth and cycles describe it
  kFaultInjected,  // a FaultInjector site fired
  kOomRollback,    // Fork or ShmCreate rolled back after running out of frames
};

// One trace-ring event. POD so the ring is a fixed-size array with no per-event allocation.
struct AttrEvent {
  uint64_t end_cycle = 0;  // simulated cycle at which the scope closed (or the instant fired)
  uint64_t cycles = 0;     // clock advance across the scope (including nested scopes)
  uint32_t task = 0;       // task current when the scope closed
  AttrCause cause = AttrCause::kInstruction;  // leaf cause of the closed scope
  uint8_t depth = 0;  // nesting depth of the closed scope (1 = root; 0 for an instant)
  uint8_t cpu = 0;    // CPU current when the scope closed
  AttrEventKind kind = AttrEventKind::kScope;
};

// The event's display name: its cause for a closed scope, its kind for an instant.
const char* AttrEventName(const AttrEvent& event);

// The attribution ledger. One per Machine; all mutation goes through CycleScope
// (src/sim/machine.h) except SetCurrentTask and SetCurrentCpu, which the kernel and the
// machine mirror, and RecordInstant.
class CycleLedger {
 public:
  static constexpr uint32_t kMaxDepth = 8;
  static constexpr uint32_t kRingCapacity = 4096;
  static_assert((kRingCapacity & (kRingCapacity - 1)) == 0, "the ring index is a mask");

  // Identifies one attribution cell: the open-scope cause path (bytes are cause+1 so a
  // zero byte means "unused level"; all-zero = the base instruction cell) and the task.
  struct CellKey {
    std::array<uint8_t, kMaxDepth> path = {};
    uint32_t task = 0;
    bool operator<(const CellKey& other) const {
      if (path != other.path) return path < other.path;
      return task < other.task;
    }
  };

  // One exported cell: the decoded cause path, owning task, and cycles charged.
  struct Cell {
    std::vector<AttrCause> path;  // empty = base instruction cell
    uint32_t task = 0;
    uint64_t cycles = 0;
  };

  bool enabled() const { return enabled_; }
  // Enabling starts attribution from the current cycle; disabling freezes the ledger
  // (cells, histograms and the ring remain readable). Enabling resets nothing — call
  // Clear() for a fresh window. The first enable allocates the ring and the histograms, so
  // a ledger that is never enabled costs no memory for them.
  void SetEnabled(bool enabled);
  void Clear();

  // Charges `cycles` to the innermost open scope (or the current task's base cell).
  // Called from Machine::AddCycles on every clock advance — the one hot-path hook.
  void Charge(uint64_t cycles) {
    if (!enabled_) {
      return;
    }
    current_->second += cycles;
    total_ += cycles;
  }

  // Scope stack. Push/Pop are driven by CycleScope; Pop records the closed scope into its
  // leaf cause's latency histogram and the ring. Rebind reclassifies the innermost
  // scope after the fact (e.g. a hash search discovers only on return whether it stayed
  // in the primary PTEG), moving the cycles already charged to its leaf cell. Rebind must
  // run before any nested scope opens under the rebound one, or the nested cells keep
  // their original parent path (cycles are still conserved, only the label is stale).
  void Push(AttrCause cause);
  void Pop(uint64_t end_cycle, uint64_t elapsed_cycles);
  void Rebind(AttrCause cause);

  // Records a zero-cycle instant (kind != kScope) into the ring; no-op while disabled.
  void RecordInstant(AttrEventKind kind, uint64_t cycle);

  // Mirrors the scheduler: subsequent base-cell charges (and new scopes) belong to `task`.
  void SetCurrentTask(uint32_t task);
  uint32_t current_task() const { return task_; }

  // Mirrors the SMP interleaver: ring events closed from now on are stamped with `cpu`.
  // Cells stay keyed by (path, task) only — the per-CPU view lives in the ring and the
  // per-CPU cycle clocks, not in the attribution table.
  void SetCurrentCpu(uint32_t cpu) { cpu_ = cpu; }
  uint32_t current_cpu() const { return cpu_; }

  uint32_t depth() const { return depth_; }
  // Total cycles charged while enabled. The conservation invariant: this equals both the
  // sum over Cells() and the machine's clock advance over the enabled window, bit-exactly.
  uint64_t TotalAttributed() const { return total_; }

  // Snapshot of every cell, deterministically ordered (path bytes, then task).
  std::vector<Cell> Cells() const;

  // The elapsed cycles of every scope closed under `cause` (its final, post-Rebind leaf
  // cause) while enabled. Empty until the ledger is first enabled.
  const LatencyHistogram& Latency(AttrCause cause) const;

  // The trace ring: the most recent events, oldest first. Capacity is fixed; older events
  // are overwritten. events_recorded() counts every event, including overwritten ones.
  std::vector<AttrEvent> RecentEvents() const;
  uint64_t events_recorded() const { return events_recorded_; }
  bool ring_allocated() const { return recorder_ != nullptr; }

 private:
  // The ring slot for the next event (counting it).
  AttrEvent& NextEvent() {
    return recorder_->ring[events_recorded_++ & (kRingCapacity - 1)];
  }

  bool enabled_ = false;
  uint32_t task_ = 0;
  uint32_t cpu_ = 0;
  uint32_t depth_ = 0;
  uint64_t total_ = 0;

  // Open-scope bookkeeping: the cause path as stored key bytes, plus per-frame the cell
  // and its balance at entry (so Rebind can move exactly the cycles charged since Push).
  struct Frame {
    AttrCause cause = AttrCause::kInstruction;
    std::map<CellKey, uint64_t>::iterator cell;
    uint64_t entry_cycles = 0;
  };
  std::array<uint8_t, kMaxDepth> path_ = {};
  std::array<Frame, kMaxDepth> frames_;

  // Cell store. std::map keeps iteration deterministic (DET-ITER-012) and nodes stable,
  // so `current_` can point straight at the hot cell between stack operations.
  std::map<CellKey, uint64_t> cells_;
  std::map<CellKey, uint64_t>::iterator base_cell_;  // cached [kInstruction-path, task_]
  std::map<CellKey, uint64_t>::iterator current_;    // innermost open cell (or base)

  // Per-cause histograms and the trace ring, allocated by the first SetEnabled(true).
  struct Recorder {
    std::array<LatencyHistogram, static_cast<size_t>(AttrCause::kNumCauses)> latency;
    std::array<AttrEvent, kRingCapacity> ring;
  };
  std::unique_ptr<Recorder> recorder_;
  uint64_t events_recorded_ = 0;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_SIM_ATTR_H_
