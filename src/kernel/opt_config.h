// Every optimization the paper describes, as an independently toggleable policy.
//
// The paper evaluates each change against the original unoptimized kernel "alone without the
// others" (§4) and then in aggregate, noting that the optimizations interact (BAT gains
// largely evaporated once reloads were fast, §5.1). This struct is the experiment surface:
// Baseline() is the original kernel, AllOptimizations() the final one, and every bench sweeps
// individual fields.

#ifndef PPCMM_SRC_KERNEL_OPT_CONFIG_H_
#define PPCMM_SRC_KERNEL_OPT_CONFIG_H_

#include <cstdint>
#include <string>

namespace ppcmm {

// §9: what the idle task does with free pages.
enum class IdleZeroPolicy {
  kOff,               // no idle-task page clearing (the baseline)
  kCached,            // clear through the data cache and keep the pages for get_free_page()
                      //   — the paper's failed first attempt (kernel compile ~2× slower)
  kUncachedNoList,    // clear with the cache inhibited but throw the work away — neutral
  kUncachedWithList,  // clear uncached and feed get_free_page() — the winning variant
};

// The complete optimization surface.
struct OptimizationConfig {
  // §5.1 — map kernel text/data (and with them the HTAB) with a BAT register.
  bool kernel_bat_mapping = false;

  // §5.2 — the VSID scatter constant. The default (16 = kNaiveVsidScatter) models the naive
  // PID-derived VSIDs (PID << 4) the paper started from; kDefaultVsidScatter (897) is the
  // histogram-tuned value.
  uint32_t vsid_scatter = 16;

  // §6.1 — hand-optimized assembly exception/miss handlers instead of save-everything-and-
  // call-C. Shortens TLB reloads, syscall entry and context switch bodies.
  bool optimized_handlers = false;

  // §6.2 — on software-reload CPUs (603), skip the HTAB and reload the TLB straight from the
  // Linux PTE tree. Ignored on hardware-walk CPUs (604), which cannot bypass the HTAB.
  bool no_htab_direct_reload = false;

  // §7 — lazy whole-context flushing: retire the context's VSIDs instead of searching the
  // HTAB per page. It also marks PTEs changed (dirty) when they are loaded, so "a TLB flush
  // is actually a TLB invalidate": zombie PTEs can never write their C bits back. Off = the
  // classic deferred scheme, where the first store through a clean translation traps to set
  // the C bit.
  bool lazy_context_flush = false;

  // §7 — flush ranges bigger than this many pages by invalidating the whole context
  // (requires lazy_context_flush). 0 disables the cutoff; the paper settled on 20.
  uint32_t range_flush_cutoff = 0;

  // §7 — idle-task reclaim of zombie HTAB entries (kIdleReclaimPtegsPerPass PTEGs a pass).
  bool idle_zombie_reclaim = false;

  // §8 — treat page tables (HTAB + PTE tree) as cache inhibited so their traffic stops
  // polluting the data cache.
  bool uncached_page_tables = false;

  // §9 — idle-task page clearing policy (the pre-zeroed list holds kPrezeroListCap pages).
  IdleZeroPolicy idle_zero = IdleZeroPolicy::kOff;

  // §10.1 (future work, built as an extension) — keep idle-task instruction/data accesses
  // out of the caches entirely.
  bool uncached_idle_task = false;

  // §10.2 (future work, built as an extension) — issue dcbt-style cache preloads for the
  // incoming task's state in the context-switch path, hiding the fill latency behind the
  // switch's other work.
  bool cache_preload_hints = false;

  // §5.1 (considered, built as an extension) — dedicate a user-visible data BAT to the
  // framebuffer "so programs such as X do not compete constantly with other applications or
  // the kernel for TLB space".
  bool framebuffer_bat = false;

  // ---- presets ----

  // The original unoptimized Linux/PPC kernel of the paper's comparisons.
  static OptimizationConfig Baseline();

  // Every optimization the paper's final kernel shipped, with the tuned parameters (scatter
  // 897, cutoff 20, uncached idle zeroing with the pre-zeroed list). Deliberately does NOT
  // include uncached page tables: §8 analyses that change but the paper had "not yet
  // performed experiments" with it.
  static OptimizationConfig AllOptimizations();

  // The §8 extension on top of the full set: page tables become cache inhibited.
  static OptimizationConfig AllPlusUncachedPageTables();

  // The full set with eager flushing: no lazy context flush, and with it neither the
  // cutoff nor idle reclaim, which only act on the zombies lazy flushing leaves. The
  // eager side of every flush-strategy comparison.
  static OptimizationConfig AllButLazyFlush();

  // Named single-optimization presets (baseline + exactly one change), used by benches that
  // reproduce the paper's one-at-a-time methodology.
  static OptimizationConfig OnlyBatMapping();
  static OptimizationConfig OnlyTunedScatter();
  static OptimizationConfig OnlyFastHandlers();
  static OptimizationConfig OnlyDirectReload();
  static OptimizationConfig OnlyLazyFlush(uint32_t cutoff = 20);
  static OptimizationConfig OnlyIdleReclaim();
  static OptimizationConfig OnlyUncachedPageTables();
  static OptimizationConfig OnlyIdleZero(IdleZeroPolicy policy);

  std::string Describe() const;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_KERNEL_OPT_CONFIG_H_
