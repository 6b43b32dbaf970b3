#include "src/mmu/mmu.h"

#include <algorithm>
#include <atomic>

#include "src/sim/check.h"

namespace ppcmm {

namespace {

// The spans default new Mmu instances read (see Mmu::SetFastPathDefault).
std::atomic<bool>& SpansDefault() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

// The attribution cause for a TLB reload: which TLB missed × which strategy serves it.
AttrCause ReloadCause(ReloadStrategy strategy, bool is_ifetch) {
  switch (strategy) {
    case ReloadStrategy::kHardwareHtabWalk:
      return is_ifetch ? AttrCause::kItlbReloadHw : AttrCause::kDtlbReloadHw;
    case ReloadStrategy::kSoftwareHtab:
      return is_ifetch ? AttrCause::kItlbReloadSwHtab : AttrCause::kDtlbReloadSwHtab;
    case ReloadStrategy::kSoftwareDirect:
      return is_ifetch ? AttrCause::kItlbReloadSwDirect : AttrCause::kDtlbReloadSwDirect;
  }
  return AttrCause::kInstruction;
}

}  // namespace

void Mmu::SetFastPathDefault(std::optional<bool> forced) {
  SpansDefault().store(forced.value_or(true), std::memory_order_relaxed);
}

Mmu::Mmu(Machine& machine, const MmuPolicy& policy, PhysAddr htab_base)
    : machine_(machine),
      policy_(policy),
      htab_(machine.config().htab_ptegs, htab_base),
      spans_enabled_(SpansDefault().load(std::memory_order_relaxed)) {
  const uint32_t ncpus = std::max(1u, machine.config().ncpus);
  banks_.reserve(ncpus);
  for (uint32_t cpu = 0; cpu < ncpus; ++cpu) {
    banks_.emplace_back(machine.config());
  }
  bank_ = &banks_[0];
}

AccessOutcome Mmu::Access(EffAddr ea, AccessKind kind) {
  const bool supervisor = ea.IsKernel();
  HwCounters& counters = machine_.counters();

  if (injector_ != nullptr && injector_->ShouldFire(FaultClass::kSpuriousTlbFlush)) {
    // An unrelated agent broadcast a TLB invalidation: alternate between a targeted tlbie
    // for this access's page and a full tlbia. Translation below proceeds from cold state.
    if (injector_->Fires(FaultClass::kSpuriousTlbFlush) % 2 == 0) {
      TlbInvalidateAll();
    } else {
      TlbInvalidatePage(ea);
    }
  }

  const bool is_ifetch = IsInstruction(kind);
  const bool is_write = IsWrite(kind);
  ++access_walks_;

  // BAT translation runs in parallel with the segment lookup; a BAT hit abandons the
  // page-table path entirely (§3).
  const BatArray& bats = is_ifetch ? ibats_ : dbats_;
  if (const std::optional<BatHit> hit = bats.Translate(ea, supervisor); hit.has_value()) {
    ++counters.bat_translations;
    if (is_ifetch) {
      machine_.TouchInstruction(hit->pa, !hit->cache_inhibited);
    } else {
      machine_.TouchData(hit->pa, is_write, !hit->cache_inhibited);
    }
    return AccessOutcome::kOk;
  }

  const VirtPage vp = bank_->segments.Resolve(ea);
  Tlb& tlb = is_ifetch ? bank_->itlb : bank_->dtlb;
  if (is_ifetch) {
    ++counters.itlb_accesses;
  } else {
    ++counters.dtlb_accesses;
  }

  TlbEntry* entry = tlb.LookupPtr(vp);
  if (entry == nullptr) {
    if (is_ifetch) {
      ++counters.itlb_misses;
    } else {
      ++counters.dtlb_misses;
    }
    const std::optional<PteWalkInfo> info = Reload(ea, vp, kind);
    if (!info.has_value()) {
      return AccessOutcome::kPageFault;
    }
    entry = tlb.LookupPtr(vp);
    PPCMM_CHECK_MSG(entry != nullptr, "reload must leave the translation in the TLB");
  }

  if (is_write && !entry->writable) {
    return AccessOutcome::kProtectionFault;
  }

  // Deferred C-bit maintenance: the first store through a clean translation must record the
  // change in the HTAB entry and the Linux PTE before the store can proceed (§7's reason to
  // mark dirty at reload instead).
  if (is_write && !entry->changed && !policy_.eager_dirty_marking) {
    CycleScope dirty_scope(machine_, AttrCause::kDirtyBitUpdate);
    ++counters.dirty_bit_updates;
    DataMemCharger pt_charger(machine_, policy_.cache_page_tables);
    machine_.AddCycles(Cycles(machine_.config().tlb_miss_interrupt_cycles / 2));
    if (policy_.UsesHtab()) {
      htab_.MarkChanged(vp, pt_charger);
    }
    if (backing_ != nullptr) {
      backing_->MarkPteDirty(ea, pt_charger);
    }
    bank_->dtlb.MarkChanged(vp);  // sets entry->changed: stores only come through the DTLB
  }

  const PhysAddr pa = PhysAddr::FromFrame(entry->frame, ea.PageOffset());
  if (is_ifetch) {
    machine_.TouchInstruction(pa, !entry->cache_inhibited);
  } else {
    machine_.TouchData(pa, is_write, !entry->cache_inhibited);
  }
  return AccessOutcome::kOk;
}

uint32_t Mmu::AccessRun(EffAddr ea, uint32_t stride, uint32_t count, AccessKind kind,
                        AccessOutcome* outcome) {
  *outcome = AccessOutcome::kOk;
  const bool is_ifetch = IsInstruction(kind);
  const bool is_write = IsWrite(kind);
  uint32_t done = 0;
  while (done < count) {
    const EffAddr cur = ea + done * stride;
    const uint32_t offset = cur.PageOffset();
    const uint32_t n = stride >= kPageSize
                           ? 1
                           : std::min(count - done, (kPageSize - 1 - offset) / stride + 1);
    const std::optional<SpanTarget> span = n > 1 ? ReplaySpan(cur, kind, n) : std::nullopt;
    if (span.has_value()) {
      // Every in-page access repeats the identical translation hit: charge their payloads
      // as one run into the page's frame.
      const PhysAddr pa = PhysAddr::FromFrame(span->frame, offset);
      if (is_ifetch) {
        machine_.TouchInstructionRun(pa, stride, n, span->cached);
      } else {
        machine_.TouchDataRun(pa, stride, n, is_write, span->cached);
      }
      done += n;
      continue;
    }
    const AccessOutcome result = Access(cur, kind);
    if (result != AccessOutcome::kOk) {
      *outcome = result;
      return done;
    }
    ++done;
  }
  return done;
}

std::optional<Mmu::SpanTarget> Mmu::ReplaySpan(EffAddr ea, AccessKind kind, uint32_t n) {
  // A fault injector polls on every access, so it rules spans out. Otherwise the lookup is
  // Access()'s own — BAT, segment register, TLB — minus its side effects, so a span that
  // validates proves all n accesses would take the identical hit: nothing a replay does
  // (cache state, counters, LRU ticks) feeds back into the BATs, the segment registers or
  // the entry's tag and R/C state.
  if (!spans_enabled_ || injector_ != nullptr) {
    return std::nullopt;
  }
  const bool is_ifetch = IsInstruction(kind);
  HwCounters& counters = machine_.counters();
  SpanTarget target;
  const BatArray& bats = is_ifetch ? ibats_ : dbats_;
  if (const std::optional<BatHit> hit = bats.Translate(ea, ea.IsKernel()); hit.has_value()) {
    // BAT blocks are page-aligned linear maps, so the whole page lands in one frame.
    counters.bat_translations += n;
    target = SpanTarget{.frame = hit->pa.PageFrame(), .cached = !hit->cache_inhibited};
  } else {
    Tlb& tlb = is_ifetch ? bank_->itlb : bank_->dtlb;
    TlbEntry* entry = tlb.ProbePtr(bank_->segments.Resolve(ea));
    if (entry == nullptr || (IsWrite(kind) && !(entry->writable && entry->changed))) {
      return std::nullopt;
    }
    if (is_ifetch) {
      counters.itlb_accesses += n;
    } else {
      counters.dtlb_accesses += n;
    }
    tlb.TouchLruRun(entry, n);
    target = SpanTarget{.frame = entry->frame, .cached = !entry->cache_inhibited};
  }
  ++span_runs_;
  span_accesses_ += n;
  return target;
}

std::optional<PhysAddr> Mmu::Probe(EffAddr ea, AccessKind kind) const {
  const bool supervisor = ea.IsKernel();
  const BatArray& bats = IsInstruction(kind) ? ibats_ : dbats_;
  if (const std::optional<BatHit> hit = bats.Translate(ea, supervisor); hit.has_value()) {
    return hit->pa;
  }
  const VirtPage vp = bank_->segments.Resolve(ea);
  // Probe the TLB without touching LRU state by scanning the HTAB and backing instead: the
  // TLB is a pure cache of those, so consult the HTAB copy first, then the backing source.
  NullMemCharger null_charger;
  if (policy_.UsesHtab()) {
    const HtabSearchResult found = htab_.Search(vp, null_charger);
    if (found.found) {
      return PhysAddr::FromFrame(found.pte.rpn, ea.PageOffset());
    }
  }
  if (backing_ != nullptr) {
    const std::optional<PteWalkInfo> info = backing_->WalkPte(ea, null_charger);
    if (info.has_value()) {
      return PhysAddr::FromFrame(info->frame, ea.PageOffset());
    }
  }
  return std::nullopt;
}

std::optional<PteWalkInfo> Mmu::Reload(EffAddr ea, VirtPage vp, AccessKind kind) {
  HwCounters& counters = machine_.counters();
  const MachineConfig& config = machine_.config();
  DataMemCharger pt_charger(machine_, policy_.cache_page_tables);
  CycleScope reload_scope(machine_, ReloadCause(policy_.strategy, IsInstruction(kind)));
  // An HTAB search under the reload scope, reclassified on return into the depth bucket the
  // probe actually reached: primary-PTEG-only, spilled into the secondary, or a full miss.
  const auto attributed_search = [&](VirtPage page) {
    CycleScope search_scope(machine_, AttrCause::kHashSearchPrimary);
    const HtabSearchResult found = htab_.Search(page, pt_charger);
    if (!found.found) {
      search_scope.Rebind(AttrCause::kHashSearchMiss);
    } else if (found.memory_refs > kPtesPerPteg) {
      search_scope.Rebind(AttrCause::kHashSearchSecondary);
    }
    return found;
  };

  switch (policy_.strategy) {
    case ReloadStrategy::kHardwareHtabWalk: {
      // The 604 walks the HTAB in hardware: fixed walk overhead plus the charged probes.
      machine_.AddCycles(Cycles(config.hw_walk_base_cycles));
      ++counters.htab_searches;
      const HtabSearchResult found = attributed_search(vp);
      if (found.found) {
        ++counters.htab_hits;
        const PteWalkInfo info{.frame = found.pte.rpn,
                               .writable = found.pte.writable,
                               .cache_inhibited = found.pte.cache_inhibited};
        InstallTlbEntry(ea, vp, info, kind);
        return info;
      }
      ++counters.htab_misses;
      // Hash-table miss interrupt into the software handler (§5: at least 91 cycles).
      machine_.AddCycles(Cycles(config.hash_miss_interrupt_cycles));
      machine_.AddCycles(Cycles(policy_.HandlerBodyCycles()));
      std::optional<PteWalkInfo> info = SoftwareRefill(ea, vp, /*insert_into_htab=*/true);
      if (info.has_value()) {
        // The faulting access retries and the hardware walk now hits the fresh HTAB entry.
        machine_.AddCycles(Cycles(config.hw_walk_base_cycles));
        ++counters.htab_searches;
        ++counters.htab_hits;
        const HtabSearchResult refound = attributed_search(vp);
        PPCMM_CHECK_MSG(refound.found, "freshly inserted HTAB entry must be found on retry");
        InstallTlbEntry(ea, vp, *info, kind);
      }
      return info;
    }

    case ReloadStrategy::kSoftwareHtab: {
      // 603 emulating the 604: software miss handler searches the HTAB.
      machine_.AddCycles(Cycles(config.tlb_miss_interrupt_cycles));
      machine_.AddCycles(Cycles(policy_.HandlerBodyCycles()));
      ++counters.htab_searches;
      const HtabSearchResult found = attributed_search(vp);
      if (found.found) {
        ++counters.htab_hits;
        const PteWalkInfo info{.frame = found.pte.rpn,
                               .writable = found.pte.writable,
                               .cache_inhibited = found.pte.cache_inhibited};
        InstallTlbEntry(ea, vp, info, kind);
        return info;
      }
      ++counters.htab_misses;
      std::optional<PteWalkInfo> info = SoftwareRefill(ea, vp, /*insert_into_htab=*/true);
      if (info.has_value()) {
        InstallTlbEntry(ea, vp, *info, kind);
      }
      return info;
    }

    case ReloadStrategy::kSoftwareDirect: {
      // §6.2: no HTAB at all — the miss handler goes straight to the Linux PTE tree,
      // three loads in the worst case.
      machine_.AddCycles(Cycles(config.tlb_miss_interrupt_cycles));
      machine_.AddCycles(Cycles(policy_.HandlerBodyCycles()));
      std::optional<PteWalkInfo> info = SoftwareRefill(ea, vp, /*insert_into_htab=*/false);
      if (info.has_value()) {
        InstallTlbEntry(ea, vp, *info, kind);
      }
      return info;
    }
  }
  PPCMM_CHECK_MSG(false, "unreachable reload strategy");
  return std::nullopt;
}

std::optional<PteWalkInfo> Mmu::SoftwareRefill(EffAddr ea, VirtPage vp, bool insert_into_htab) {
  // mmu-lint-deferred-flush(FLUSH-CONTRACT-029): the insert is born coherent — it loads the
  // translation this CPU just missed on; a displaced live entry simply re-faults through
  // this same refill path, and flush correctness never depends on HTAB residency
  HwCounters& counters = machine_.counters();
  PPCMM_CHECK_MSG(backing_ != nullptr, "MMU has no PTE backing source installed");
  DataMemCharger pt_charger(machine_, policy_.cache_page_tables);

  ++counters.pte_tree_walks;
  const std::optional<PteWalkInfo> info = backing_->WalkPte(ea, pt_charger);
  if (!info.has_value()) {
    return std::nullopt;  // genuine page fault; the kernel repairs and retries
  }

  if (insert_into_htab) {
    if (injector_ != nullptr && injector_->ShouldFire(FaultClass::kHtabEvictionStorm)) {
      // Forced eviction storm: wipe both candidate PTEGs — up to 16 live entries — before
      // the insert. Harmless for dirty state (the C bit is written through to the Linux PTE)
      // but maximally hostile to HTAB hit rates and zombie bookkeeping.
      htab_.InvalidatePteg(htab_.PrimaryPteg(vp), &pt_charger);
      htab_.InvalidatePteg(htab_.SecondaryPteg(vp), &pt_charger);
    }
    const HashedPte pte{.valid = true,
                        .vsid = vp.vsid,
                        .page_index = vp.page_index,
                        .rpn = info->frame,
                        .cache_inhibited = info->cache_inhibited,
                        .writable = info->writable,
                        .referenced = true,
                        // §7: the optimized kernel marks writable PTEs changed at load time,
                        // making every later flush a pure invalidate.
                        .changed = policy_.eager_dirty_marking && info->writable};
    const VsidOracle& oracle = oracle_ != nullptr ? *oracle_ : all_live_;
    const HtabInsertOutcome outcome = htab_.Insert(pte, oracle, pt_charger);
    ++counters.htab_reloads;
    switch (outcome) {
      case HtabInsertOutcome::kFreeSlot:
        break;
      case HtabInsertOutcome::kReplacedZombie:
        ++counters.htab_zombie_overwrites;
        break;
      case HtabInsertOutcome::kReplacedLive:
        ++counters.htab_evicts;
        break;
    }
  }
  return info;
}

void Mmu::InstallTlbEntry(EffAddr ea, VirtPage vp, const PteWalkInfo& info, AccessKind kind) {
  const TlbEntry entry{.valid = true,
                       .vsid = vp.vsid,
                       .page_index = vp.page_index,
                       .frame = info.frame,
                       .cache_inhibited = info.cache_inhibited,
                       .writable = info.writable,
                       .changed = policy_.eager_dirty_marking && info.writable,
                       .is_kernel = ea.IsKernel(),
                       .last_used = 0};
  // Instruction fetches reload the ITLB, loads/stores the DTLB.
  if (IsInstruction(kind)) {
    bank_->itlb.Insert(entry);
  } else {
    bank_->dtlb.Insert(entry);
  }
  UpdateKernelHighwater();
}

void Mmu::UpdateKernelHighwater() {
  HwCounters& counters = machine_.counters();
  const uint64_t now = static_cast<uint64_t>(bank_->itlb.KernelEntryCount()) +
                       bank_->dtlb.KernelEntryCount();
  counters.kernel_tlb_highwater = std::max(counters.kernel_tlb_highwater, now);
}

void Mmu::TlbInvalidatePage(EffAddr ea) {
  ++machine_.counters().tlb_page_flushes;
  // tlbie plus the serializing tlbsync/sync pair — a fixed pipeline cost on 603/604.
  machine_.AddCycles(Cycles(32));
  bank_->itlb.InvalidatePage(ea.PageIndex());
  bank_->dtlb.InvalidatePage(ea.PageIndex());
}

void Mmu::TlbInvalidateAll() {
  ++machine_.counters().tlb_all_flushes;
  // tlbia plus the serializing tlbsync/sync pair, same fixed pipeline cost as tlbie.
  machine_.AddCycles(Cycles(32));
  bank_->itlb.InvalidateAll();
  bank_->dtlb.InvalidateAll();
}

uint32_t Mmu::TlbInvalidateVsid(Vsid vsid) {
  const auto pred = [vsid](const TlbEntry& e) { return e.vsid == vsid; };
  return bank_->itlb.InvalidateMatching(pred) + bank_->dtlb.InvalidateMatching(pred);
}

}  // namespace ppcmm
