#include "src/mmu/tlb.h"

#include <utility>

namespace ppcmm {

namespace {

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

Tlb::Tlb(std::string name, uint32_t entries) : name_(std::move(name)) {
  PPCMM_CHECK_MSG(entries % kTlbAssociativity == 0, "TLB entries must divide evenly into ways");
  num_sets_ = entries / kTlbAssociativity;
  PPCMM_CHECK_MSG(IsPowerOfTwo(num_sets_), "TLB set count must be a power of two");
  ways_.resize(entries);
}

void Tlb::Insert(const TlbEntry& entry) {
  ++tick_;
  TlbEntry* ways = SetBase(SetIndex(entry.page_index));
  TlbEntry* victim = &ways[0];
  for (uint32_t w = 0; w < kTlbAssociativity; ++w) {
    TlbEntry& candidate = ways[w];
    // Reuse the way already holding this virtual page, else prefer an invalid way.
    if (candidate.valid && candidate.vsid == entry.vsid &&
        candidate.page_index == entry.page_index) {
      victim = &candidate;
      break;
    }
    if (!candidate.valid) {
      victim = &candidate;
      break;
    }
    if (candidate.last_used < victim->last_used) {
      victim = &candidate;
    }
  }
  if (victim->valid && victim->is_kernel) {
    --kernel_entries_;
  }
  *victim = entry;
  victim->valid = true;
  victim->last_used = tick_;
  if (victim->is_kernel) {
    ++kernel_entries_;
  }
}

uint32_t Tlb::InvalidatePage(uint32_t page_index) {
  uint32_t cleared = 0;
  TlbEntry* ways = SetBase(SetIndex(page_index));
  for (uint32_t w = 0; w < kTlbAssociativity; ++w) {
    TlbEntry& entry = ways[w];
    if (entry.valid && entry.page_index == page_index) {
      if (entry.is_kernel) {
        --kernel_entries_;
      }
      entry.valid = false;
      ++cleared;
    }
  }
  return cleared;
}

void Tlb::InvalidateAll() {
  for (TlbEntry& entry : ways_) {
    entry.valid = false;
  }
  kernel_entries_ = 0;
}

uint32_t Tlb::ValidCount() const {
  uint32_t count = 0;
  for (const TlbEntry& entry : ways_) {
    if (entry.valid) {
      ++count;
    }
  }
  return count;
}

uint32_t Tlb::KernelEntryCount() const { return kernel_entries_; }

}  // namespace ppcmm
