// The PowerPC hashed page table (HTAB).
//
// Geometry per the paper (§7): 2048 PTEGs ("buckets") of 8 PTEs each — 16384 entries.
// A virtual page hashes to a primary PTEG; if neither a match nor a free slot is found
// there, the one's-complement secondary hash selects an overflow PTEG. A full search
// therefore touches at most 16 memory locations — the constant behind the expensive eager
// flushes of §7.
//
// Every probe is charged through a MemCharger at the slot's architected physical address, so
// HTAB traffic shows up in the data cache exactly as it did on the real 604 (§8). Reads of
// consecutive slots go out as one MemCharger::ChargeRun, in the same order as one Charge
// per slot would.
//
// Alongside the slots the table keeps one byte per PTEG mirroring their valid bits, so
// whole-table sweeps (zombie reclaim, rollover) look only at valid slots. The mask is host
// bookkeeping: sweeps charge every slot read exactly as a slot-by-slot scan would.

#ifndef PPCMM_SRC_MMU_HASH_TABLE_H_
#define PPCMM_SRC_MMU_HASH_TABLE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/sim/addr.h"
#include "src/mmu/hashed_pte.h"
#include "src/sim/mem_charge.h"
#include "src/mmu/vsid_oracle.h"
#include "src/sim/phys_addr.h"

namespace ppcmm {

// Outcome of inserting a PTE.
enum class HtabInsertOutcome {
  kFreeSlot,        // an invalid slot was available
  kReplacedZombie,  // displaced a valid PTE whose VSID is dead (harmless)
  kReplacedLive,    // displaced a valid PTE of a live context (a real evict)
};

// Result of a search (or of InvalidatePage, which reports the entry it cleared).
struct HtabSearchResult {
  bool found = false;
  HashedPte pte;          // valid only when found
  uint32_t memory_refs = 0;  // references charged to the MemCharger
};

// The hashed page table.
class HashTable {
 public:
  // `base` is the table's physical address; slot i of PTEG g lives at
  // base + (g * 8 + i) * 8 bytes. `num_ptegs` must be a power of two.
  HashTable(uint32_t num_ptegs, PhysAddr base);

  uint32_t num_ptegs() const { return static_cast<uint32_t>(ptegs_.size()); }
  uint32_t capacity() const { return num_ptegs() * kPtesPerPteg; }
  PhysAddr base() const { return base_; }
  uint32_t SizeBytes() const { return capacity() * kPteBytes; }

  // The architected hash functions.
  uint32_t PrimaryPteg(VirtPage vp) const;
  uint32_t SecondaryPteg(VirtPage vp) const;
  // Physical address of one slot (for cache-charging and for the BAT-mapping experiments).
  PhysAddr SlotAddr(uint32_t pteg, uint32_t slot) const;

  // Searches primary then secondary PTEG for `vp`, charging one read per probed slot. The
  // table itself is never modified — probing with a NullMemCharger (as Mmu::Probe does) is
  // side-effect free, which is why this is const.
  HtabSearchResult Search(VirtPage vp, MemCharger& charger) const;

  // Inserts `pte`, preferring a free slot in the primary then secondary PTEG; when both are
  // full, replaces a slot chosen round-robin among the 16 candidates — the paper's
  // "arbitrary PTE" replacement. The oracle classifies what was displaced.
  HtabInsertOutcome Insert(const HashedPte& pte, const VsidOracle& oracle, MemCharger& charger);

  // Searches both PTEGs for `vp` and clears its valid bit. Returns the entry that was
  // invalidated, if any (so the caller can propagate its R/C bits back to the Linux PTE),
  // and the references charged: the probes plus the clearing store. This is the expensive
  // per-page flush: 16 references when the page is absent.
  HtabSearchResult InvalidatePage(VirtPage vp, MemCharger& charger);

  // Sets the C (changed) bit on the entry for `vp` (the hardware's deferred store-update).
  // Returns true if the entry was found. Charges the search plus one store.
  bool MarkChanged(VirtPage vp, MemCharger& charger);

  // Scans the whole table invalidating entries selected by `pred` (a callable taking
  // const HashedPte&); charges one read per slot (plus one write per invalidation) when
  // `charger` is non-null. Returns entries cleared.
  template <typename Pred>
  uint32_t InvalidateMatching(Pred pred, MemCharger* charger) {
    return SweepSlots(0, capacity(), pred, charger);
  }

  // Invalidates every valid entry of one PTEG (fault injection: a forced eviction storm).
  // Charges one write per cleared slot when `charger` is non-null. Returns entries cleared.
  // Safe with deferred C-bit marking because the C bit is written through to the Linux PTE
  // at the first store, so dropping HTAB entries can never lose dirty information.
  uint32_t InvalidatePteg(uint32_t pteg, MemCharger* charger);

  // Idle-task zombie reclaim (§7): scans up to `max_ptegs` PTEGs from an internal cursor,
  // physically invalidating valid PTEs whose VSID is dead. Returns zombies cleared.
  uint32_t ReclaimZombies(uint32_t max_ptegs, const VsidOracle& oracle, MemCharger& charger);

  // Occupancy probes (uncharged; these model the paper's instrumentation, not the hardware).
  uint32_t ValidCount() const;
  uint32_t LiveCount(const VsidOracle& oracle) const;
  // Histogram over PTEGs of valid-entry counts: index 0..8 → number of PTEGs with that many
  // valid entries. This is the paper's §5.2 "hash table miss histogram" tool.
  std::array<uint32_t, kPtesPerPteg + 1> OccupancyHistogram() const;
  double Utilization() const;

  // Direct slot access for tests and the reclaim experiments.
  const HashedPte& At(uint32_t pteg, uint32_t slot) const;
  // Bit s is set exactly when slot s of `pteg` is valid.
  uint8_t ValidMask(uint32_t pteg) const { return valid_mask_[pteg]; }

  void Clear();

 private:
  using Pteg = std::array<HashedPte, kPtesPerPteg>;

  // Where a two-PTEG probe stopped: the first slot satisfying its predicate, primary PTEG
  // first (slot == kPtesPerPteg when neither PTEG has one), and the slot reads it charged.
  struct PtegProbe {
    uint32_t pteg = 0;
    uint32_t slot = kPtesPerPteg;
    uint32_t refs = 0;
    bool found() const { return slot < kPtesPerPteg; }
  };
  // The one two-PTEG probe behind Search, Insert, InvalidatePage and MarkChanged.
  template <typename Pred>
  PtegProbe ProbePair(VirtPage vp, Pred pred, MemCharger& charger) const;
  // The one slot sweep behind InvalidateMatching and ReclaimZombies: clears every valid slot
  // `pred` selects among flat slots [first, end), charging (when `charger` is non-null) the
  // slot reads as maximal runs split by the clearing stores. Returns entries cleared.
  template <typename Pred>
  uint32_t SweepSlots(uint32_t first, uint32_t end, Pred pred, MemCharger* charger);
  // Charges the reads of slots [first, end) in table order (slot i of PTEG g is flat slot
  // g * 8 + i, and flat slots are contiguous in memory).
  void ChargeSlotReads(MemCharger& charger, uint32_t first, uint32_t end) const;
  // Clears one slot's valid bit, keeping the mask in step (uncharged).
  void Invalidate(uint32_t pteg, uint32_t slot) {
    ptegs_[pteg][slot].valid = false;
    valid_mask_[pteg] &= static_cast<uint8_t>(~(1u << slot));
  }

  std::vector<Pteg> ptegs_;
  std::vector<uint8_t> valid_mask_;  // per PTEG: bit s mirrors ptegs_[g][s].valid
  PhysAddr base_;
  uint32_t hash_mask_;
  uint32_t replace_cursor_ = 0;
  uint32_t reclaim_cursor_ = 0;
};

template <typename Pred>
uint32_t HashTable::SweepSlots(uint32_t first, uint32_t end, Pred pred, MemCharger* charger) {
  // Only a valid slot can be cleared, so `pred` runs on the set bits of each PTEG's valid
  // mask. `run_start` is the first slot whose read is not yet charged: a run ends at a
  // clearing store, which must land after the reads before it.
  uint32_t cleared = 0;
  uint32_t run_start = first;
  for (uint32_t g = first / kPtesPerPteg; g * kPtesPerPteg < end; ++g) {
    const uint32_t base = g * kPtesPerPteg;
    const uint32_t lo = first > base ? first - base : 0;
    const uint32_t hi = std::min(end - base, kPtesPerPteg);
    uint32_t mask = valid_mask_[g] & ((1u << hi) - 1) & ~((1u << lo) - 1);
    for (; mask != 0; mask &= mask - 1) {
      const auto s = static_cast<uint32_t>(std::countr_zero(mask));
      if (!pred(ptegs_[g][s])) {
        continue;
      }
      Invalidate(g, s);
      ++cleared;
      if (charger != nullptr) {
        ChargeSlotReads(*charger, run_start, base + s + 1);
        charger->Charge(base_ + (base + s) * kPteBytes, /*is_write=*/true);
      }
      run_start = base + s + 1;
    }
  }
  if (charger != nullptr) {
    ChargeSlotReads(*charger, run_start, end);
  }
  return cleared;
}

}  // namespace ppcmm

#endif  // PPCMM_SRC_MMU_HASH_TABLE_H_
