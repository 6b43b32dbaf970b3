// The MMU translation engine.
//
// Models the full 32-bit PowerPC reference path of Figure 1 and the reload mechanisms of
// §3/§5/§6:
//
//   effective address ──BAT match?──▶ physical (no TLB, no HTAB)
//        │ no
//   segment registers ──▶ (VSID, page index) ──TLB hit?──▶ physical
//        │ miss
//   reload, by strategy:
//     kHardwareHtabWalk  (604)  hardware searches the HTAB (~120 cycles, ≤16 refs); a HTAB
//                               miss raises a ≥91-cycle interrupt into the software path
//     kSoftwareHtab      (603)  32-cycle TLB-miss interrupt; software searches the HTAB,
//                               emulating the 604 (the early Linux/PPC approach, §6.2)
//     kSoftwareDirect    (603)  32-cycle interrupt; software walks the Linux PTE tree
//                               directly, no HTAB at all ("improving hash tables away")
//
// All HTAB and PTE-tree references are charged through the data cache — or around it when
// the policy says page tables are cache-inhibited (§8).

#ifndef PPCMM_SRC_MMU_MMU_H_
#define PPCMM_SRC_MMU_MMU_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/sim/addr.h"
#include "src/mmu/bat.h"
#include "src/mmu/hash_table.h"
#include "src/sim/mem_charge.h"
#include "src/mmu/segment_regs.h"
#include "src/mmu/tlb.h"
#include "src/mmu/vsid_oracle.h"
#include "src/sim/machine.h"
#include "src/sim/fault_injector.h"

namespace ppcmm {

// How TLB misses are refilled (see file comment).
enum class ReloadStrategy {
  kHardwareHtabWalk,
  kSoftwareHtab,
  kSoftwareDirect,
};

// MMU-level policy knobs, derived from the paper's optimizations.
struct MmuPolicy {
  ReloadStrategy strategy = ReloadStrategy::kHardwareHtabWalk;
  // §6.1: hand-optimized assembly miss handlers vs. the original save-state-and-call-C path.
  bool optimized_handlers = false;
  // §8: whether page-table (HTAB + PTE tree) references go through the data cache.
  bool cache_page_tables = true;
  // §7: mark the PTE changed (dirty) when it is loaded, so a later flush is a pure
  // invalidate. When false, the classic deferred scheme runs: the first store through a
  // clean translation traps to update the C bit in the HTAB and the Linux PTE.
  bool eager_dirty_marking = false;
  // Handler body costs in cycles, beyond the architectural interrupt overhead.
  static constexpr uint32_t kUnoptimizedHandlerCycles = 150;
  static constexpr uint32_t kOptimizedHandlerCycles = 10;

  uint32_t HandlerBodyCycles() const {
    return optimized_handlers ? kOptimizedHandlerCycles : kUnoptimizedHandlerCycles;
  }

  bool UsesHtab() const { return strategy != ReloadStrategy::kSoftwareDirect; }
};

// What a PTE-tree walk found.
struct PteWalkInfo {
  uint32_t frame = 0;
  bool writable = false;
  bool cache_inhibited = false;
};

// The kernel-side source of translations: walks the current context's Linux two-level PTE
// tree, charging its loads through the given charger.
class PteBackingSource {
 public:
  virtual ~PteBackingSource() = default;
  virtual std::optional<PteWalkInfo> WalkPte(EffAddr ea, MemCharger& charger) = 0;
  // Propagates a changed (dirty) bit into the Linux PTE for `ea` (deferred C-bit update and
  // flush-time write-back both land here).
  virtual void MarkPteDirty(EffAddr ea, MemCharger& charger) = 0;
};

// Outcome of one memory reference.
enum class AccessOutcome {
  kOk,
  kPageFault,        // no translation exists in the PTE tree
  kProtectionFault,  // store to a read-only mapping (e.g. copy-on-write)
};

// A MemCharger that routes references through (or around) the machine's data cache.
class DataMemCharger : public MemCharger {
 public:
  DataMemCharger(Machine& machine, bool cached) : machine_(machine), cached_(cached) {}
  void Charge(PhysAddr pa, bool is_write) override { machine_.TouchData(pa, is_write, cached_); }
  void ChargeRun(PhysAddr pa, uint32_t stride, uint32_t count, bool is_write) override {
    machine_.TouchDataRun(pa, stride, count, is_write, cached_);
  }

 private:
  Machine& machine_;
  bool cached_;
};

// The MMU proper.
class Mmu {
 public:
  // The HTAB is placed at `htab_base` in physical memory with the configured PTEG count.
  Mmu(Machine& machine, const MmuPolicy& policy, PhysAddr htab_base);

  Mmu(const Mmu&) = delete;
  Mmu& operator=(const Mmu&) = delete;

  // Wiring: the kernel installs its PTE-tree walker and VSID liveness oracle.
  void SetBacking(PteBackingSource* backing) { backing_ = backing; }
  void SetVsidOracle(const VsidOracle* oracle) { oracle_ = oracle; }

  // Optional fault injection (kSpuriousTlbFlush on every access, kHtabEvictionStorm on every
  // HTAB insert); null = never fires.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  // Performs one full memory reference: translation (charging all reload costs) followed by
  // the cache access to the translated address. On a fault nothing is installed; the caller
  // (kernel fault path) repairs the PTE tree and retries.
  AccessOutcome Access(EffAddr ea, AccessKind kind);

  // Where a replayed span's payload lands: the page's frame and its cacheability.
  struct SpanTarget {
    uint32_t frame = 0;
    bool cached = true;
  };

  // The translation span gate of every batched caller, all in the kernel: user runs, the
  // idle loop's fetch chunks, page-batched user copies and the context switch's register
  // saves. Looks the page of `ea` up exactly as Access() would — BAT, then segment
  // register, then the TLB — but through a probe that leaves LRU state alone. On a BAT
  // hit, or a TLB hit that passes the write gate (writable and changed for stores),
  // replays the translation side of `n` (> 0) hits on that page — counters, TLB LRU
  // ticks, host span statistics — and returns where their payloads land; the caller
  // charges those payload accesses itself, so it can interleave them with other cache
  // traffic. Declines (nullopt, nothing touched) on a TLB miss, a
  // pending protection or C-bit trap, an attached fault injector, or spans switched off.
  std::optional<SpanTarget> ReplaySpan(EffAddr ea, AccessKind kind, uint32_t n);

  // Translation without the final payload cache access (probe used by tests/instrumentation;
  // charges nothing and changes nothing).
  std::optional<PhysAddr> Probe(EffAddr ea, AccessKind kind) const;

  // TLB maintenance used by the kernel's flush strategies. These act on the *current*
  // CPU's TLBs; cross-CPU invalidation goes through the shootdown primitives below.
  void TlbInvalidatePage(EffAddr ea);            // tlbie: by page index in both TLBs
  void TlbInvalidateAll();                       // tlbia

  // ---- SMP ----
  //
  // Each simulated CPU owns a bank of private MMU state: split I/D TLBs and segment
  // registers. The BATs, the HTAB, and the backing PTE tree are shared, exactly like
  // physical memory. SetCurrentCpu moves the translation spotlight; everything above
  // (Access, reloads, local flushes) then reads and writes that CPU's bank.
  uint32_t NumCpus() const { return static_cast<uint32_t>(banks_.size()); }
  void SetCurrentCpu(uint32_t cpu) { bank_ = &banks_[cpu]; }

  // Shootdown primitives: invalidate translations in CPU `cpu`'s TLBs on behalf of a
  // remote requester. Pure state mutation — the caller (the flush engine's IPI round)
  // owns all cycle charging and counter accounting, so these charge and count nothing.
  // mmu-lint rule SMP-IPI-028 confines callers to the shootdown/IPI path in flush.cc:
  // any other cross-CPU TLB mutation would be a coherence hole the auditor cannot see.
  void ShootdownInvalidatePage(uint32_t cpu, EffAddr ea) {
    banks_[cpu].itlb.InvalidatePage(ea.PageIndex());
    banks_[cpu].dtlb.InvalidatePage(ea.PageIndex());
  }
  void ShootdownInvalidateAll(uint32_t cpu) {
    banks_[cpu].itlb.InvalidateAll();
    banks_[cpu].dtlb.InvalidateAll();
  }

  // Component access (the current CPU's bank for per-CPU components).
  SegmentRegs& segments() { return bank_->segments; }
  BatArray& ibats() { return ibats_; }
  BatArray& dbats() { return dbats_; }
  HashTable& htab() { return htab_; }
  const HashTable& htab() const { return htab_; }
  Tlb& itlb() { return bank_->itlb; }
  Tlb& dtlb() { return bank_->dtlb; }
  // Per-CPU views (verification: the auditor checks every CPU's TLBs and segments).
  SegmentRegs& segments(uint32_t cpu) { return banks_[cpu].segments; }
  Tlb& itlb(uint32_t cpu) { return banks_[cpu].itlb; }
  Tlb& dtlb(uint32_t cpu) { return banks_[cpu].dtlb; }
  const MmuPolicy& policy() const { return policy_; }
  Machine& machine() { return machine_; }

  // Builds a charger that follows the page-table caching policy (used by the kernel when it
  // searches/updates the HTAB outside the reload path, e.g. flushes and idle reclaim).
  DataMemCharger PageTableCharger() {
    return DataMemCharger(machine_, policy_.cache_page_tables);
  }

  // ---- translation spans ----
  //
  // Spans are host-side batching only: counters and cycles are bit-identical with them on
  // or off (fast_path_test and batched_run_test prove it differentially). The switch is
  // process-wide and read when an Mmu is built, so a twin System built under
  // ScopedSpanDefault(false) is the per-access reference. nullopt restores the default, on.
  static void SetFastPathDefault(std::optional<bool> forced);
  // Host-side statistics (not HwCounters: they must not exist inside the simulation).
  // fast_path_hits() and fast_path_misses() keep the names perfbench reads: span-replayed
  // accesses and full Access() walks, so hits / (hits + misses) is the share spans carried.
  uint64_t fast_path_hits() const { return span_accesses_; }
  uint64_t fast_path_misses() const { return access_walks_; }
  // Spans replayed by ReplaySpan and the accesses they covered.
  uint64_t span_runs() const { return span_runs_; }
  uint64_t span_accesses() const { return span_accesses_; }

 private:
  // Per-CPU MMU state (see the SMP section above).
  struct CpuBank {
    explicit CpuBank(const MachineConfig& config)
        : itlb("itlb", config.itlb_entries), dtlb("dtlb", config.dtlb_entries) {}
    SegmentRegs segments;
    Tlb itlb;
    Tlb dtlb;
  };

  // Refills the TLB after a miss. Returns the walk result or nullopt on page fault.
  std::optional<PteWalkInfo> Reload(EffAddr ea, VirtPage vp, AccessKind kind);
  // Software path shared by every strategy once the HTAB (if any) has missed.
  std::optional<PteWalkInfo> SoftwareRefill(EffAddr ea, VirtPage vp, bool insert_into_htab);
  void InstallTlbEntry(EffAddr ea, VirtPage vp, const PteWalkInfo& info, AccessKind kind);
  void UpdateKernelHighwater();

  Machine& machine_;
  MmuPolicy policy_;
  BatArray ibats_;
  BatArray dbats_;
  HashTable htab_;
  std::vector<CpuBank> banks_;  // one per CPU, fixed at construction
  CpuBank* bank_;               // the current CPU's bank
  PteBackingSource* backing_ = nullptr;
  const VsidOracle* oracle_ = nullptr;
  AllLiveVsidOracle all_live_;
  FaultInjector* injector_ = nullptr;

  const bool spans_enabled_;
  uint64_t access_walks_ = 0;
  uint64_t span_runs_ = 0;
  uint64_t span_accesses_ = 0;
};

// Holds the spans default at `enabled` for every Mmu built while the guard lives.
class ScopedSpanDefault {
 public:
  explicit ScopedSpanDefault(bool enabled) { Mmu::SetFastPathDefault(enabled); }
  ~ScopedSpanDefault() { Mmu::SetFastPathDefault(std::nullopt); }
  ScopedSpanDefault(const ScopedSpanDefault&) = delete;
  ScopedSpanDefault& operator=(const ScopedSpanDefault&) = delete;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_MMU_MMU_H_
