// TLB and hash-table flushing strategies (§7 of the paper).
//
// The baseline kernel flushes eagerly: for every page it searches both hash buckets (up to
// 16 memory references) to clear the PTE, then issues a tlbie. Ranges of 40–110 pages were
// common, making mmap() latency milliseconds.
//
// The optimized kernel flushes lazily: retiring the context's VSIDs makes every cached
// translation unreachable in O(1), leaving "zombie" PTEs behind for the idle task to sweep.
// The tunable range cutoff (20 pages) picks between the two per call.

#ifndef PPCMM_SRC_KERNEL_FLUSH_H_
#define PPCMM_SRC_KERNEL_FLUSH_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/kernel/mm.h"
#include "src/kernel/opt_config.h"
#include "src/kernel/task.h"
#include "src/kernel/vsid_space.h"
#include "src/mmu/mmu.h"

namespace ppcmm {

// Inter-processor-interrupt costs for TLB shootdown (the smp_call_function idiom): cycles
// the requesting CPU spends raising the IPI and the remote CPU spends taking the interrupt
// before it runs the invalidation itself.
constexpr uint32_t kIpiSendCycles = 64;
constexpr uint32_t kIpiReceiveCycles = 128;

// SMP bookkeeping shared between the kernel (which owns it and keeps it current) and the
// flush engine (which reads it to run TLB shootdown). One entry per simulated CPU; the CPU
// count and the current CPU are the Machine's.
struct SmpState {
  // The task each CPU runs. {0} = none: the CPU sits in its idle loop, so shootdowns skip
  // it and defer the invalidation to its next switch-in (the cpu_idle_wait idiom).
  std::vector<TaskId> running;
  // 1 = the CPU owes a deferred whole-TLB flush. Its TLB content is logically invalid —
  // the tlbia runs when the execution spotlight next moves there.
  std::vector<uint8_t> flush_pending;
};

// Executes flushes against the MMU on behalf of the kernel.
class FlushEngine {
 public:
  // `smp` is the kernel-owned SMP state. With one CPU every cross-CPU path is idle, leaving
  // the uniprocessor behavior bit-identical.
  FlushEngine(Mmu& mmu, VsidSpace& vsids, const OptimizationConfig& config, SmpState& smp)
      : mmu_(mmu), vsids_(vsids), config_(config), smp_(smp) {}

  // Flushes one user page of `mm`. Always eager (a single page never hits the cutoff).
  void FlushPage(Mm& mm, EffAddr ea);

  // Flushes [start_page, start_page + page_count) of `mm`. With lazy flushing and a cutoff,
  // large ranges are converted into a whole-context flush. `mm_is_current` tells the engine
  // whether the segment registers must be reloaded after a context reassignment.
  void FlushRange(Mm& mm, uint32_t start_page, uint32_t page_count, bool mm_is_current);

  // Flushes the pages `eas` of `mm` (fork's write-protected pages). Over the cutoff a lazy
  // kernel flushes the whole context instead, as FlushRange does; under it each page takes
  // its own FlushPage, and so its own shootdown round.
  void FlushPages(Mm& mm, const std::vector<EffAddr>& eas, bool mm_is_current);

  // Flushes every translation of `mm` (exec, and the parent of a fork that ran out of memory).
  void FlushContext(Mm& mm, bool mm_is_current);

  // Retires `mm`'s context for good (exit): an eager kernel first flushes every translation
  // (FlushContext); a lazy one only counts the context flush, and its translations become
  // zombies. Opens no scope of its own on the lazy path. Draws no new context.
  void RetireContext(Mm& mm, bool mm_is_current);

  // Runs the deferred whole-TLB flush CPU `cpu` owes, if any. Called by the kernel right
  // after the execution spotlight moves to `cpu`, so the tlbia cost lands on that CPU.
  void RunDeferredFlush(uint32_t cpu);

  // VSID epoch rollover support: invalidates every CPU's TLBs (the local one through the
  // ordinary counted tlbia, remote ones directly — the rollover is a stop-the-world event,
  // not an IPI round) and clears all deferred-flush debts, since every TLB is now empty.
  void RolloverInvalidateAll();

  // Test-only sabotage: when set, EagerFlushPage skips the tlbie — the HTAB entry goes but
  // the TLB keeps the stale translation. Exists so the coherence auditor's detection of a
  // broken flush can itself be tested; never enable outside a test.
  void TestOnlyBreakTlbInvalidate(bool broken) { broken_tlb_invalidate_ = broken; }

  // Test-only sabotage: when set, ShootdownRound still sends every IPI (cycles and counters
  // unchanged) but the remote handler "forgets" its invalidation, leaving stale entries in
  // remote TLBs. Unlike a broken local tlbie this is only reachable when a task has built
  // TLB state on one CPU and then flushes from another — exactly the cross-CPU window the
  // fuzzer's SMP checks exist to cover. Never enable outside a test.
  void TestOnlyBreakShootdown(bool broken) { broken_shootdown_ = broken; }

 private:
  // Whether a flush of `page_count` pages becomes a lazy context flush (§7's cutoff).
  bool OverCutoff(uint32_t page_count) const {
    return config_.lazy_context_flush && config_.range_flush_cutoff > 0 &&
           page_count > config_.range_flush_cutoff;
  }
  // The eager per-page path: HTAB search-and-invalidate plus tlbie.
  void EagerFlushPage(Mm& mm, EffAddr ea);
  // The lazy path: retire the VSIDs, draw a fresh context.
  void LazyFlushContext(Mm& mm, bool mm_is_current);
  // One cross-CPU TLB shootdown round (the smp_call_function idiom): every busy remote CPU
  // takes an IPI and invalidates — `page` alone when set, its whole TLB otherwise; every
  // idle remote CPU is skipped and marked flush-pending instead. The lazy VSID-bump path
  // never calls this: retired VSIDs are unreachable on every CPU, so remote zombie TLB
  // entries are harmless — the paper's trick eliminates shootdowns outright.
  void ShootdownRound(const std::optional<EffAddr>& page);

  Mmu& mmu_;
  VsidSpace& vsids_;
  const OptimizationConfig& config_;
  SmpState& smp_;
  bool broken_tlb_invalidate_ = false;
  bool broken_shootdown_ = false;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_KERNEL_FLUSH_H_
