#include "src/mmu/hash_table.h"

#include <algorithm>

#include "src/sim/check.h"

namespace ppcmm {

namespace {

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

// The 19 low-order VSID bits participate in the architected primary hash.
constexpr uint32_t kHashVsidMask = 0x7FFFF;

}  // namespace

HashTable::HashTable(uint32_t num_ptegs, PhysAddr base)
    : ptegs_(num_ptegs), base_(base), hash_mask_(num_ptegs - 1) {
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

uint32_t HashTable::ChargeProbes(uint32_t pteg, uint32_t first_hit, MemCharger& charger) const {
  const uint32_t probed = std::min(first_hit + 1, kPtesPerPteg);
  ChargeSlotReads(charger, pteg * kPtesPerPteg, pteg * kPtesPerPteg + probed);
  return probed;
}

HtabSearchResult HashTable::Search(VirtPage vp, MemCharger& charger) const {
  HtabSearchResult result;
  const uint32_t groups[2] = {PrimaryPteg(vp), SecondaryPteg(vp)};
  for (uint32_t g : groups) {
    const uint32_t s = FirstSlot(g, [vp](const HashedPte& pte) { return pte.Matches(vp); });
    result.memory_refs += ChargeProbes(g, s, charger);
    if (s < kPtesPerPteg) {
      result.found = true;
      result.pte = ptegs_[g][s];
      return result;
    }
  }
  return result;
}

HtabInsertOutcome HashTable::Insert(const HashedPte& pte, const VsidOracle& oracle,
                                    MemCharger& charger) {
  PPCMM_CHECK_MSG(pte.valid, "inserting an invalid PTE makes no sense");
  const uint32_t groups[2] = {PrimaryPteg(pte.virt_page()), SecondaryPteg(pte.virt_page())};

  // Pass 1: look for a free slot, charging a read per probe (the reload code examines each
  // candidate slot's valid bit).
  for (uint32_t g : groups) {
    const uint32_t s = FirstSlot(g, [](const HashedPte& slot) { return !slot.valid; });
    ChargeProbes(g, s, charger);
    if (s < kPtesPerPteg) {
      ptegs_[g][s] = pte;
      charger.Charge(SlotAddr(g, s), /*is_write=*/true);
      return HtabInsertOutcome::kFreeSlot;
    }
  }

  // Both PTEGs full: replace an arbitrary candidate (round-robin over the 16 slots), exactly
  // the paper's non-optimal replacement that does not distinguish live PTEs from zombies.
  const uint32_t pick = replace_cursor_++ % (2 * kPtesPerPteg);
  const uint32_t g = groups[pick / kPtesPerPteg];
  const uint32_t s = pick % kPtesPerPteg;
  const bool victim_live = oracle.IsLive(ptegs_[g][s].vsid);
  ptegs_[g][s] = pte;
  charger.Charge(SlotAddr(g, s), /*is_write=*/true);
  return victim_live ? HtabInsertOutcome::kReplacedLive : HtabInsertOutcome::kReplacedZombie;
}

std::optional<HashedPte> HashTable::InvalidatePage(VirtPage vp, MemCharger& charger) {
  const uint32_t groups[2] = {PrimaryPteg(vp), SecondaryPteg(vp)};
  for (uint32_t g : groups) {
    const uint32_t s = FirstSlot(g, [vp](const HashedPte& pte) { return pte.Matches(vp); });
    ChargeProbes(g, s, charger);
    if (s < kPtesPerPteg) {
      const HashedPte old = ptegs_[g][s];
      ptegs_[g][s].valid = false;
      charger.Charge(SlotAddr(g, s), /*is_write=*/true);
      return old;
    }
  }
  return std::nullopt;
}

bool HashTable::MarkChanged(VirtPage vp, MemCharger& charger) {
  const uint32_t groups[2] = {PrimaryPteg(vp), SecondaryPteg(vp)};
  for (uint32_t g : groups) {
    const uint32_t s = FirstSlot(g, [vp](const HashedPte& pte) { return pte.Matches(vp); });
    ChargeProbes(g, s, charger);
    if (s < kPtesPerPteg) {
      ptegs_[g][s].changed = true;
      charger.Charge(SlotAddr(g, s), /*is_write=*/true);
      return true;
    }
  }
  return false;
}

uint32_t HashTable::InvalidateMatching(const std::function<bool(const HashedPte&)>& pred,
                                       MemCharger* charger) {
  // Slot addresses are contiguous across PTEGs, so the reads between two invalidations are
  // one run; `run_start` is the first slot whose read is not yet charged.
  uint32_t cleared = 0;
  uint32_t run_start = 0;
  for (uint32_t slot = 0; slot < capacity(); ++slot) {
    HashedPte& pte = ptegs_[slot / kPtesPerPteg][slot % kPtesPerPteg];
    if (pte.valid && pred(pte)) {
      pte.valid = false;
      ++cleared;
      if (charger != nullptr) {
        ChargeSlotReads(*charger, run_start, slot + 1);
        charger->Charge(base_ + slot * kPteBytes, /*is_write=*/true);
      }
      run_start = slot + 1;
    }
  }
  if (charger != nullptr) {
    ChargeSlotReads(*charger, run_start, capacity());
  }
  return cleared;
}

uint32_t HashTable::InvalidatePteg(uint32_t pteg, MemCharger* charger) {
  PPCMM_CHECK(pteg < num_ptegs());
  uint32_t cleared = 0;
  for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
    HashedPte& pte = ptegs_[pteg][s];
    if (pte.valid) {
      pte.valid = false;
      ++cleared;
      if (charger != nullptr) {
        charger->Charge(SlotAddr(pteg, s), /*is_write=*/true);
      }
    }
  }
  return cleared;
}

uint32_t HashTable::ReclaimZombies(uint32_t max_ptegs, const VsidOracle& oracle,
                                   MemCharger& charger) {
  // The scan's slot reads are charged as maximal runs starting at `run_start`: a run ends
  // at a reclaim write, which must land after the reads before it, and where the cursor
  // wraps to PTEG 0, where the addresses stop being contiguous.
  uint32_t reclaimed = 0;
  const uint32_t limit = std::min(max_ptegs, num_ptegs());
  uint32_t run_start = reclaim_cursor_ * kPtesPerPteg;
  for (uint32_t i = 0; i < limit; ++i) {
    const uint32_t g = reclaim_cursor_;
    reclaim_cursor_ = (reclaim_cursor_ + 1) & hash_mask_;
    for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
      HashedPte& pte = ptegs_[g][s];
      if (pte.valid && !oracle.IsLive(pte.vsid)) {
        pte.valid = false;
        ++reclaimed;
        const uint32_t slot = g * kPtesPerPteg + s;
        ChargeSlotReads(charger, run_start, slot + 1);
        charger.Charge(base_ + slot * kPteBytes, /*is_write=*/true);
        run_start = slot + 1;
      }
    }
    if (reclaim_cursor_ == 0) {
      ChargeSlotReads(charger, run_start, capacity());
      run_start = 0;
    }
  }
  ChargeSlotReads(charger, run_start, reclaim_cursor_ * kPtesPerPteg);
  return reclaimed;
}

uint32_t HashTable::ValidCount() const {
  uint32_t count = 0;
  for (const Pteg& pteg : ptegs_) {
    for (const HashedPte& pte : pteg) {
      if (pte.valid) {
        ++count;
      }
    }
  }
  return count;
}

uint32_t HashTable::LiveCount(const VsidOracle& oracle) const {
  uint32_t count = 0;
  for (const Pteg& pteg : ptegs_) {
    for (const HashedPte& pte : pteg) {
      if (pte.valid && oracle.IsLive(pte.vsid)) {
        ++count;
      }
    }
  }
  return count;
}

std::array<uint32_t, kPtesPerPteg + 1> HashTable::OccupancyHistogram() const {
  std::array<uint32_t, kPtesPerPteg + 1> histogram{};
  for (const Pteg& pteg : ptegs_) {
    uint32_t occupied = 0;
    for (const HashedPte& pte : pteg) {
      if (pte.valid) {
        ++occupied;
      }
    }
    ++histogram[occupied];
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
  replace_cursor_ = 0;
  reclaim_cursor_ = 0;
}

}  // namespace ppcmm
