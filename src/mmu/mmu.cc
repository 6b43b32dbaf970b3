#include "src/mmu/mmu.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string_view>

#include "src/sim/check.h"

namespace ppcmm {

namespace {

// Process-wide override for the fast-path default: -1 = follow the environment,
// 0/1 = forced by SetFastPathDefault (the torture differential flips this around
// workloads that build their own System internally).
std::atomic<int>& FastPathForced() {
  static std::atomic<int> forced{-1};
  return forced;
}

bool FastPathEnvDefault() {
  const char* env = std::getenv("PPCMM_FAST_PATH");
  if (env == nullptr) {
    return true;
  }
  const std::string_view value(env);
  return !(value == "0" || value == "off");
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

bool Mmu::FastPathDefault() {
  const int forced = FastPathForced().load(std::memory_order_relaxed);
  if (forced >= 0) {
    return forced != 0;
  }
  return FastPathEnvDefault();
}

void Mmu::SetFastPathDefault(std::optional<bool> forced) {
  FastPathForced().store(forced.has_value() ? (*forced ? 1 : 0) : -1,
                         std::memory_order_relaxed);
}

void Mmu::SetFastPathEnabled(bool enabled) {
  fast_path_enabled_ = enabled;
  FastPathInvalidate();
}

void Mmu::FastPathInvalidate() {
  for (auto& bank : banks_) {
    for (auto& side : bank->fast_slots) {
      side.fill(FastSlot{});
    }
  }
}

Mmu::Mmu(Machine& machine, const MmuPolicy& policy, PhysAddr htab_base)
    : machine_(machine),
      policy_(policy),
      htab_(machine.config().htab_ptegs, htab_base),
      fast_path_enabled_(FastPathDefault()) {
  const uint32_t ncpus = std::max(1u, machine.config().ncpus);
  banks_.reserve(ncpus);
  for (uint32_t cpu = 0; cpu < ncpus; ++cpu) {
    banks_.push_back(std::make_unique<CpuBank>(machine.config()));
  }
  bank_ = banks_[0].get();
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
  const uint32_t epn = ea.EffPageNumber();
  FastSlot& slot = bank_->fast_slots[is_ifetch ? 1 : 0][epn & (kFastPathSlots - 1)];

  // Host fast path: replay the memoized outcome for this page when nothing it depends on
  // has changed. Everything up to the commit point is a pure read — a rejected memo must
  // leave no trace in the simulation.
  if (fast_path_enabled_ && slot.eff_page == epn && slot.gen == FastGen()) {
    if (slot.entry == nullptr) {
      // Memoized BAT hit. BAT state is unchanged (generation match) and BAT blocks are
      // page-aligned linear maps, so the same effective page still hits the same block and
      // lands in the same frame.
      ++fast_hits_;
      ++counters.bat_translations;
      const PhysAddr pa = PhysAddr::FromFrame(slot.bat_frame, ea.PageOffset());
      if (is_ifetch) {
        machine_.TouchInstruction(pa, !slot.bat_cache_inhibited);
      } else {
        machine_.TouchData(pa, is_write, !slot.bat_cache_inhibited);
      }
      return AccessOutcome::kOk;
    }
    TlbEntry* entry = slot.entry;
    if (entry->valid && entry->vsid.value == slot.vsid &&
        entry->page_index == (epn & kPageIndexMask) &&
        (!is_write || (entry->writable && entry->changed))) {
      // The segment registers are unchanged (generation match), so resolving `ea` would
      // yield slot.vsid again; the way still holds exactly that tag, so the associative
      // lookup would hit it; the write gate guarantees no protection fault and no pending
      // C-bit work. Replay the lookup's side effects and charge the payload access.
      ++fast_hits_;
      Tlb& tlb = is_ifetch ? bank_->itlb : bank_->dtlb;
      if (is_ifetch) {
        ++counters.itlb_accesses;
      } else {
        ++counters.dtlb_accesses;
      }
      tlb.TouchLru(entry);
      const PhysAddr pa = PhysAddr::FromFrame(entry->frame, ea.PageOffset());
      if (is_ifetch) {
        machine_.TouchInstruction(pa, !entry->cache_inhibited);
      } else {
        machine_.TouchData(pa, is_write, !entry->cache_inhibited);
      }
      return AccessOutcome::kOk;
    }
  }
  if (fast_path_enabled_) {
    ++fast_misses_;
  }

  // BAT translation runs in parallel with the segment lookup; a BAT hit abandons the
  // page-table path entirely (§3).
  const BatArray& bats = is_ifetch ? ibats_ : dbats_;
  if (const std::optional<BatHit> hit = bats.Translate(ea, supervisor); hit.has_value()) {
    ++counters.bat_translations;
    if (fast_path_enabled_) {
      slot = FastSlot{.eff_page = epn,
                      .vsid = 0,
                      .gen = FastGen(),
                      .entry = nullptr,
                      .bat_frame = hit->pa.PageFrame(),
                      .bat_cache_inhibited = hit->cache_inhibited};
    }
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

  if (fast_path_enabled_) {
    slot = FastSlot{.eff_page = epn,
                    .vsid = vp.vsid.value,
                    .gen = FastGen(),
                    .entry = entry,
                    .bat_frame = 0,
                    .bat_cache_inhibited = false};
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
    // A page-or-wider stride puts one access in each page; skipping the division matters
    // because such runs mostly miss the memo and are declined.
    const uint32_t n = stride >= kPageSize
                           ? 1
                           : std::min(count - done, (kPageSize - 1 - offset) / stride + 1);
    if (const std::optional<SpanTarget> span = ReplaySpan(cur, kind, n); span.has_value()) {
      // Every in-page access replays the identical memo hit: charge their payloads as one
      // run into the memoized frame.
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
  // Span replay is legal only when the memo fast path is trusted for this page and no
  // fault injector demands per-access polling. The validity test is byte-for-byte the one
  // Access() applies; a span that validates proves all n accesses would take the identical
  // memo hit, because nothing a replay does (cache state, counters, LRU ticks) feeds back
  // into the generation counters or the entry tag.
  if (!fast_path_enabled_ || injector_ != nullptr) {
    return std::nullopt;
  }
  const bool is_ifetch = IsInstruction(kind);
  const uint32_t epn = ea.EffPageNumber();
  const FastSlot& slot = bank_->fast_slots[is_ifetch ? 1 : 0][epn & (kFastPathSlots - 1)];
  if (slot.eff_page != epn || slot.gen != FastGen()) {
    return std::nullopt;
  }
  HwCounters& counters = machine_.counters();
  SpanTarget target;
  if (slot.entry == nullptr) {
    // Memoized BAT hit: the block is a page-aligned linear map, so the whole page lands in
    // the memoized frame.
    counters.bat_translations += n;
    target = SpanTarget{.frame = slot.bat_frame, .cached = !slot.bat_cache_inhibited};
  } else {
    TlbEntry* entry = slot.entry;
    if (!entry->valid || entry->vsid.value != slot.vsid ||
        entry->page_index != (epn & kPageIndexMask) ||
        (IsWrite(kind) && !(entry->writable && entry->changed))) {
      return std::nullopt;
    }
    if (is_ifetch) {
      counters.itlb_accesses += n;
      bank_->itlb.TouchLruRun(entry, n);
    } else {
      counters.dtlb_accesses += n;
      bank_->dtlb.TouchLruRun(entry, n);
    }
    target = SpanTarget{.frame = entry->frame, .cached = !entry->cache_inhibited};
  }
  ++span_runs_;
  span_accesses_ += n;
  fast_hits_ += n;
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
