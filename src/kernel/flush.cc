#include "src/kernel/flush.h"

namespace ppcmm {

void FlushEngine::FlushPage(Mm& mm, EffAddr ea) {
  CycleScope flush_scope(mmu_.machine(), AttrCause::kRangeFlushEager);
  EagerFlushPage(mm, ea);
  ShootdownRound(ea);
}

void FlushEngine::FlushRange(Mm& mm, uint32_t start_page, uint32_t page_count,
                             bool mm_is_current) {
  if (OverCutoff(page_count)) {
    // §7: "invalidating the whole memory management context of any process needing to
    // invalidate more than a small set of pages" — the 80× mmap() win.
    FlushContext(mm, mm_is_current);
    return;
  }
  // Eager path: "the kernel was clearing the range of addresses by searching the hash table
  // for each PTE in turn" (§7) — every page in the range pays the two-PTEG search, whether
  // or not a translation is actually cached.
  CycleScope flush_scope(mmu_.machine(), AttrCause::kRangeFlushEager);
  for (uint32_t i = 0; i < page_count; ++i) {
    EagerFlushPage(mm, EffAddr::FromPage(start_page + i));
  }
  // One shootdown round covers the whole range: a single page is invalidated remotely by
  // page, anything larger costs the remote CPUs one full tlbia each (flush_tlb_range-style).
  if (page_count == 1) {
    ShootdownRound(EffAddr::FromPage(start_page));
  } else {
    ShootdownRound(std::nullopt);
  }
}

void FlushEngine::FlushPages(Mm& mm, const std::vector<EffAddr>& eas, bool mm_is_current) {
  if (OverCutoff(static_cast<uint32_t>(eas.size()))) {
    FlushContext(mm, mm_is_current);  // lazy: the cutoff needs lazy_context_flush
    return;
  }
  for (const EffAddr ea : eas) {
    FlushPage(mm, ea);
  }
}

void FlushEngine::FlushContext(Mm& mm, bool mm_is_current) {
  if (config_.lazy_context_flush) {
    CycleScope flush_scope(mmu_.machine(), AttrCause::kContextFlushLazy);
    LazyFlushContext(mm, mm_is_current);
    return;
  }
  // Eager: flush every present page individually — the cost the lazy scheme eliminates.
  CycleScope flush_scope(mmu_.machine(), AttrCause::kRangeFlushEager);
  mm.page_table->ForEachPresent([&](EffAddr ea, const LinuxPte&) { EagerFlushPage(mm, ea); });
  ShootdownRound(std::nullopt);
}

void FlushEngine::RetireContext(Mm& mm, bool mm_is_current) {
  if (config_.lazy_context_flush) {
    // Just count the flush: retiring the VSIDs below leaves the translations as zombies.
    ++mmu_.machine().counters().tlb_context_flushes;
    mmu_.machine().AddCycles(Cycles(12));
  } else {
    FlushContext(mm, mm_is_current);
  }
  vsids_.Retire(mm.context);
}

void FlushEngine::EagerFlushPage(Mm& mm, EffAddr ea) {
  // The flush loop body around each page (address arithmetic, bounds checks).
  mmu_.machine().AddCycles(Cycles(8));
  if (mmu_.policy().UsesHtab()) {
    const VirtPage vp{.vsid = vsids_.UserVsid(mm.context, ea.SegmentIndex()),
                      .page_index = ea.PageIndex()};
    DataMemCharger charger = mmu_.PageTableCharger();
    const HtabSearchResult invalidated = mmu_.htab().InvalidatePage(vp, charger);
    mmu_.machine().counters().htab_flush_memory_refs += invalidated.memory_refs;
    // Deferred dirty scheme: the C bit accumulated in the HTAB must survive in the Linux
    // PTE (with eager marking the PTE was already dirtied at fault/reload time).
    if (invalidated.found && invalidated.pte.changed) {
      const std::optional<LinuxPte> pte = mm.page_table->LookupQuiet(ea);
      if (pte.has_value() && pte->present && !pte->dirty) {
        mm.page_table->Update(ea, [](LinuxPte& p) { p.dirty = true; }, &charger);
      }
    }
  }
  if (!broken_tlb_invalidate_) {
    mmu_.TlbInvalidatePage(ea);
  }
}

void FlushEngine::LazyFlushContext(Mm& mm, bool mm_is_current) {
  HwCounters& counters = mmu_.machine().counters();
  vsids_.Retire(mm.context);
  mm.context = vsids_.NewContext();
  ++counters.tlb_context_flushes;
  // A handful of cycles: bump the counter, store the new VSIDs into the task structure and,
  // if this is the running task, reload the segment registers.
  mmu_.machine().AddCycles(Cycles(12 + (mm_is_current ? kNumSegments * 2 : 0)));
  if (mm_is_current) {
    mmu_.segments().LoadAll(vsids_.SegmentImage(mm.context));
  }
}

void FlushEngine::ShootdownRound(const std::optional<EffAddr>& page) {
  Machine& machine = mmu_.machine();
  if (machine.ncpus() <= 1) {
    return;
  }
  HwCounters& counters = machine.counters();
  CycleScope shootdown_scope(machine, AttrCause::kTlbShootdown);
  ++counters.tlb_shootdown_requests;
  for (uint32_t cpu = 0; cpu < machine.ncpus(); ++cpu) {
    if (cpu == machine.current_cpu()) {
      continue;  // the local TLB was already invalidated by the eager flush itself
    }
    if (smp_.running[cpu].value == 0) {
      // The cpu_idle_wait idiom: an idle CPU runs no user code, so instead of an IPI it is
      // marked flush-pending and runs one whole-TLB flush when it next schedules a task.
      smp_.flush_pending[cpu] = 1;
      ++counters.tlb_shootdown_idle_skips;
      continue;
    }
    ++counters.tlb_shootdown_ipis;
    // The requester raises the IPI and busy-waits for the acknowledgement; the remote CPU
    // takes the interrupt and runs the invalidation.
    machine.AddCycles(Cycles(kIpiSendCycles));
    machine.AddCyclesOn(cpu, Cycles(kIpiReceiveCycles + kTlbInvalidateCycles));
    if (broken_shootdown_) {
      continue;  // test-only: the IPI lands but the handler forgets the invalidation
    }
    if (page.has_value()) {
      mmu_.ShootdownInvalidatePage(cpu, *page);
    } else {
      mmu_.ShootdownInvalidateAll(cpu);
    }
  }
}

void FlushEngine::RunDeferredFlush(uint32_t cpu) {
  if (smp_.flush_pending[cpu] == 0) {
    return;
  }
  smp_.flush_pending[cpu] = 0;
  Machine& machine = mmu_.machine();
  CycleScope shootdown_scope(machine, AttrCause::kTlbShootdown);
  ++machine.counters().tlb_shootdown_deferred_flushes;
  // The spotlight is already on `cpu`, so the tlbia cost lands on its local clock.
  machine.AddCycles(Cycles(kTlbInvalidateCycles));
  mmu_.ShootdownInvalidateAll(cpu);
}

void FlushEngine::RolloverInvalidateAll() {
  mmu_.TlbInvalidateAll();
  Machine& machine = mmu_.machine();
  for (uint32_t cpu = 0; cpu < machine.ncpus(); ++cpu) {
    smp_.flush_pending[cpu] = 0;  // every TLB is empty after this sweep; no debts remain
    if (cpu == machine.current_cpu()) {
      continue;
    }
    machine.AddCyclesOn(cpu, Cycles(kTlbInvalidateCycles));
    mmu_.ShootdownInvalidateAll(cpu);
  }
}

}  // namespace ppcmm
