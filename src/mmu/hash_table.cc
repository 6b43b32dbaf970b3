#include "src/mmu/hash_table.h"

#include <algorithm>
#include <initializer_list>

#include "src/sim/check.h"

namespace ppcmm {

namespace {

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

// The 19 low-order VSID bits participate in the architected primary hash.
constexpr uint32_t kHashVsidMask = 0x7FFFF;

// The slot predicate of a page lookup.
auto MatchesPage(VirtPage vp) {
  return [vp](const HashedPte& pte) { return pte.Matches(vp); };
}

}  // namespace

HashTable::HashTable(uint32_t num_ptegs, PhysAddr base)
    : ptegs_(num_ptegs), valid_mask_(num_ptegs, 0), base_(base), hash_mask_(num_ptegs - 1) {
  PPCMM_CHECK_MSG(IsPowerOfTwo(num_ptegs), "HTAB PTEG count must be a power of two");
}

uint32_t HashTable::PrimaryPteg(VirtPage vp) const {
  return ((vp.vsid.value & kHashVsidMask) ^ vp.page_index) & hash_mask_;
}

uint32_t HashTable::SecondaryPteg(VirtPage vp) const {
  return (~((vp.vsid.value & kHashVsidMask) ^ vp.page_index)) & hash_mask_;
}

PhysAddr HashTable::SlotAddr(uint32_t pteg, uint32_t slot) const {
  PPCMM_CHECK(pteg < num_ptegs() && slot < kPtesPerPteg);
  return base_ + (pteg * kPtesPerPteg + slot) * kPteBytes;
}

void HashTable::ChargeSlotReads(MemCharger& charger, uint32_t first, uint32_t end) const {
  if (end > first) {
    charger.ChargeRun(base_ + first * kPteBytes, kPteBytes, end - first, /*is_write=*/false);
  }
}

template <typename Pred>
HashTable::PtegProbe HashTable::ProbePair(VirtPage vp, Pred pred, MemCharger& charger) const {
  // The host-side scan of a PTEG runs first so its probes (up to and including the slot
  // found, else all eight) go out as one run.
  PtegProbe probe;
  for (const uint32_t g : {PrimaryPteg(vp), SecondaryPteg(vp)}) {
    uint32_t s = 0;
    while (s < kPtesPerPteg && !pred(ptegs_[g][s])) {
      ++s;
    }
    const uint32_t probed = std::min(s + 1, kPtesPerPteg);
    ChargeSlotReads(charger, g * kPtesPerPteg, g * kPtesPerPteg + probed);
    probe.refs += probed;
    if (s < kPtesPerPteg) {
      probe.pteg = g;
      probe.slot = s;
      break;
    }
  }
  return probe;
}

HtabSearchResult HashTable::Search(VirtPage vp, MemCharger& charger) const {
  const PtegProbe probe = ProbePair(vp, MatchesPage(vp), charger);
  if (!probe.found()) {
    return HtabSearchResult{.memory_refs = probe.refs};
  }
  return HtabSearchResult{
      .found = true, .pte = ptegs_[probe.pteg][probe.slot], .memory_refs = probe.refs};
}

HtabInsertOutcome HashTable::Insert(const HashedPte& pte, const VsidOracle& oracle,
                                    MemCharger& charger) {
  PPCMM_CHECK_MSG(pte.valid, "inserting an invalid PTE makes no sense");
  const VirtPage vp = pte.virt_page();
  // Look for a free slot, charging a read per probe (the reload code examines each
  // candidate slot's valid bit).
  PtegProbe target = ProbePair(vp, [](const HashedPte& slot) { return !slot.valid; }, charger);
  HtabInsertOutcome outcome = HtabInsertOutcome::kFreeSlot;
  if (!target.found()) {
    // Both PTEGs full: replace an arbitrary candidate (round-robin over the 16 slots),
    // exactly the paper's non-optimal replacement that does not distinguish live PTEs from
    // zombies.
    const uint32_t pick = replace_cursor_++ % (2 * kPtesPerPteg);
    target.pteg = pick < kPtesPerPteg ? PrimaryPteg(vp) : SecondaryPteg(vp);
    target.slot = pick % kPtesPerPteg;
    outcome = oracle.IsLive(ptegs_[target.pteg][target.slot].vsid)
                  ? HtabInsertOutcome::kReplacedLive
                  : HtabInsertOutcome::kReplacedZombie;
  }
  ptegs_[target.pteg][target.slot] = pte;
  valid_mask_[target.pteg] |= static_cast<uint8_t>(1u << target.slot);
  charger.Charge(SlotAddr(target.pteg, target.slot), /*is_write=*/true);
  return outcome;
}

HtabSearchResult HashTable::InvalidatePage(VirtPage vp, MemCharger& charger) {
  const PtegProbe probe = ProbePair(vp, MatchesPage(vp), charger);
  if (!probe.found()) {
    return HtabSearchResult{.memory_refs = probe.refs};
  }
  const HtabSearchResult cleared{
      .found = true, .pte = ptegs_[probe.pteg][probe.slot], .memory_refs = probe.refs + 1};
  Invalidate(probe.pteg, probe.slot);
  charger.Charge(SlotAddr(probe.pteg, probe.slot), /*is_write=*/true);
  return cleared;
}

bool HashTable::MarkChanged(VirtPage vp, MemCharger& charger) {
  const PtegProbe probe = ProbePair(vp, MatchesPage(vp), charger);
  if (probe.found()) {
    ptegs_[probe.pteg][probe.slot].changed = true;
    charger.Charge(SlotAddr(probe.pteg, probe.slot), /*is_write=*/true);
  }
  return probe.found();
}

uint32_t HashTable::InvalidatePteg(uint32_t pteg, MemCharger* charger) {
  PPCMM_CHECK(pteg < num_ptegs());
  const uint32_t cleared = static_cast<uint32_t>(std::popcount(valid_mask_[pteg]));
  for (uint32_t mask = valid_mask_[pteg]; mask != 0; mask &= mask - 1) {
    const auto s = static_cast<uint32_t>(std::countr_zero(mask));
    Invalidate(pteg, s);
    if (charger != nullptr) {
      charger->Charge(SlotAddr(pteg, s), /*is_write=*/true);
    }
  }
  return cleared;
}

uint32_t HashTable::ReclaimZombies(uint32_t max_ptegs, const VsidOracle& oracle,
                                   MemCharger& charger) {
  // The scan starts at the cursor and wraps to PTEG 0 at most once; slot addresses stop
  // being contiguous at the wrap, so each side is its own sweep.
  const auto zombie = [&oracle](const HashedPte& pte) { return !oracle.IsLive(pte.vsid); };
  const uint32_t stop = reclaim_cursor_ + std::min(max_ptegs, num_ptegs());
  uint32_t reclaimed = SweepSlots(reclaim_cursor_ * kPtesPerPteg,
                                  std::min(stop, num_ptegs()) * kPtesPerPteg, zombie, &charger);
  if (stop > num_ptegs()) {
    reclaimed += SweepSlots(0, (stop - num_ptegs()) * kPtesPerPteg, zombie, &charger);
  }
  reclaim_cursor_ = stop & hash_mask_;
  return reclaimed;
}

uint32_t HashTable::ValidCount() const {
  uint32_t count = 0;
  for (const uint8_t mask : valid_mask_) {
    count += static_cast<uint32_t>(std::popcount(mask));
  }
  return count;
}

uint32_t HashTable::LiveCount(const VsidOracle& oracle) const {
  uint32_t count = 0;
  for (uint32_t g = 0; g < num_ptegs(); ++g) {
    for (uint32_t mask = valid_mask_[g]; mask != 0; mask &= mask - 1) {
      if (oracle.IsLive(ptegs_[g][std::countr_zero(mask)].vsid)) {
        ++count;
      }
    }
  }
  return count;
}

std::array<uint32_t, kPtesPerPteg + 1> HashTable::OccupancyHistogram() const {
  std::array<uint32_t, kPtesPerPteg + 1> histogram{};
  for (const uint8_t mask : valid_mask_) {
    ++histogram[std::popcount(mask)];
  }
  return histogram;
}

double HashTable::Utilization() const {
  return static_cast<double>(ValidCount()) / static_cast<double>(capacity());
}

const HashedPte& HashTable::At(uint32_t pteg, uint32_t slot) const {
  PPCMM_CHECK(pteg < num_ptegs() && slot < kPtesPerPteg);
  return ptegs_[pteg][slot];
}

void HashTable::Clear() {
  for (Pteg& pteg : ptegs_) {
    pteg.fill(HashedPte{});
  }
  std::fill(valid_mask_.begin(), valid_mask_.end(), uint8_t{0});
  replace_cursor_ = 0;
  reclaim_cursor_ = 0;
}

}  // namespace ppcmm
