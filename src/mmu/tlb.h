// The translation look-aside buffer.
//
// Modelled after the 603/604 split TLBs: 2-way set associative, indexed by the low bits of
// the effective page index, with entries tagged by the full (VSID, page index) virtual page.
// Tagging by VSID is what makes the paper's lazy flush sound: after a context's VSIDs are
// retired, its stale TLB entries can never match a live translation.
//
// Each entry also records whether it maps a kernel page, so the simulator can reproduce the
// paper's "percentage of TLB slots occupied by the kernel" measurement (§5.1).

#ifndef PPCMM_SRC_MMU_TLB_H_
#define PPCMM_SRC_MMU_TLB_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/addr.h"
#include "src/sim/check.h"

namespace ppcmm {

// One cached translation.
struct TlbEntry {
  bool valid = false;
  Vsid vsid;
  uint32_t page_index = 0;  // 16-bit page index within the segment
  uint32_t frame = 0;       // 20-bit physical page number
  bool cache_inhibited = false;
  bool writable = false;
  bool changed = false;     // the C bit: a store has been performed through this entry
  bool is_kernel = false;   // maps a kernel-segment page (footprint instrumentation)
  uint64_t last_used = 0;
};

// One TLB (instruction or data side).
class Tlb {
 public:
  // `entries` must be a multiple of `associativity`; sets = entries / associativity must be
  // a power of two.
  Tlb(std::string name, uint32_t entries, uint32_t associativity);

  // Looks up a translation; refreshes LRU state on hit.
  std::optional<TlbEntry> Lookup(VirtPage vp);

  // Lookup variant returning a pointer into the TLB's backing store (nullptr on miss), with
  // byte-identical LRU/tick behaviour. The pointer stays valid for the TLB's lifetime (the
  // way array never reallocates) but the *entry* it names may be replaced or invalidated by
  // any later Insert/Invalidate*. Inline: this sits on the translation path of every
  // non-BAT memory reference.
  TlbEntry* LookupPtr(VirtPage vp) {
    ++tick_;
    TlbEntry* entry = ProbePtr(vp);
    if (entry != nullptr) {
      entry->last_used = tick_;
    }
    return entry;
  }

  // The same associative search with no side effects: neither the tick nor any entry's
  // LRU state moves. The MMU judges translation spans with it before replaying any hit.
  TlbEntry* ProbePtr(VirtPage vp) {
    TlbEntry* ways = SetBase(SetIndex(vp.page_index));
    for (uint32_t w = 0; w < associativity_; ++w) {
      TlbEntry& entry = ways[w];
      if (entry.valid && entry.vsid == vp.vsid && entry.page_index == vp.page_index) {
        return &entry;
      }
    }
    return nullptr;
  }

  // `n` back-to-back hits on the same resident entry, collapsed: bit-identical to `n`
  // LookupPtr hits on it (the tick advances by n and the entry ends up most recent).
  // Translation-span replay only.
  void TouchLruRun(TlbEntry* entry, uint32_t n) {
    tick_ += n;
    entry->last_used = tick_;
  }

  // Installs a translation, replacing an invalid way or the LRU way of the set.
  void Insert(const TlbEntry& entry);

  // tlbie-style invalidation: clears every entry in the set indexed by `page_index` whose
  // page index matches, regardless of VSID (the hardware cannot compare VSIDs on tlbie).
  uint32_t InvalidatePage(uint32_t page_index);

  // Invalidates every entry (tlbia / full flush).
  void InvalidateAll();

  // Sets the C (changed) bit on the entry for `vp`, if present.
  void MarkChanged(VirtPage vp);

  // Invalidates entries selected by `pred`; returns the count (simulation convenience).
  uint32_t InvalidateMatching(const std::function<bool(const TlbEntry&)>& pred);

  // Read-only visit of every valid entry (auditing convenience; no LRU side effects).
  void ForEachValid(const std::function<void(const TlbEntry&)>& fn) const {
    for (const TlbEntry& entry : ways_) {
      if (entry.valid) {
        fn(entry);
      }
    }
  }

  uint32_t ValidCount() const;
  uint32_t KernelEntryCount() const;
  uint32_t entries() const { return static_cast<uint32_t>(ways_.size()); }
  uint32_t num_sets() const { return num_sets_; }
  const std::string& name() const { return name_; }

 private:
  uint32_t SetIndex(uint32_t page_index) const { return page_index & (num_sets_ - 1); }
  TlbEntry* SetBase(uint32_t set) { return &ways_[static_cast<size_t>(set) * associativity_]; }
  const TlbEntry* SetBase(uint32_t set) const {
    return &ways_[static_cast<size_t>(set) * associativity_];
  }

  std::string name_;
  uint32_t associativity_;
  uint32_t num_sets_;
  std::vector<TlbEntry> ways_;  // sets * ways, row-major by set
  uint64_t tick_ = 0;
  uint32_t kernel_entries_ = 0;  // incremental count of valid kernel entries
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_MMU_TLB_H_
