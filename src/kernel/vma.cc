#include "src/kernel/vma.h"

#include <algorithm>

#include "src/sim/check.h"

namespace ppcmm {

void VmaList::Insert(const Vma& vma) {
  PPCMM_CHECK_MSG(vma.start_page < vma.end_page, "empty or inverted VMA");
  PPCMM_CHECK_MSG(RangeIsFree(vma.start_page, vma.PageCount()),
                  "VMA [" << vma.start_page << ", " << vma.end_page
                          << ") overlaps an existing one");
  vmas_.emplace(vma.start_page, vma);
}

std::optional<Vma> VmaList::Find(uint32_t page) const {
  auto it = vmas_.upper_bound(page);
  if (it == vmas_.begin()) {
    return std::nullopt;
  }
  --it;
  if (it->second.Contains(page)) {
    return it->second;
  }
  return std::nullopt;
}

uint32_t VmaList::Remove(uint32_t start_page, uint32_t page_count) {
  const uint32_t end_page = start_page + page_count;
  uint32_t removed = 0;

  // Find the first VMA that could overlap.
  auto it = vmas_.upper_bound(start_page);
  if (it != vmas_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end_page > start_page) {
      it = prev;
    }
  }

  while (it != vmas_.end() && it->second.start_page < end_page) {
    Vma vma = it->second;
    it = vmas_.erase(it);

    const uint32_t cut_start = std::max(vma.start_page, start_page);
    const uint32_t cut_end = std::min(vma.end_page, end_page);
    removed += cut_end - cut_start;

    // Left remainder.
    if (vma.start_page < cut_start) {
      Vma left = vma;
      left.end_page = cut_start;
      vmas_.emplace(left.start_page, left);
    }
    // Right remainder.
    if (vma.end_page > cut_end) {
      Vma right = vma;
      right.start_page = cut_end;
      if (right.backing == VmaBacking::kFile) {
        right.file_page_offset += cut_end - vma.start_page;
      }
      vmas_.emplace(right.start_page, right);
    }
  }
  return removed;
}

bool VmaList::RangeIsFree(uint32_t start_page, uint32_t page_count) const {
  const uint32_t end_page = start_page + page_count;
  auto it = vmas_.upper_bound(start_page);
  if (it != vmas_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end_page > start_page) {
      return false;
    }
  }
  return it == vmas_.end() || it->second.start_page >= end_page;
}

uint32_t VmaList::FindFreeRange(uint32_t hint_page, uint32_t page_count) const {
  uint32_t candidate = hint_page;
  auto it = vmas_.upper_bound(candidate);
  if (it != vmas_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end_page > candidate) {
      candidate = prev->second.end_page;
    }
  }
  while (it != vmas_.end() && it->second.start_page < candidate + page_count) {
    candidate = it->second.end_page;
    ++it;
  }
  return candidate;
}

uint32_t VmaList::TotalPages() const {
  uint32_t total = 0;
  for (const auto& [start, vma] : vmas_) {
    total += vma.PageCount();
  }
  return total;
}

}  // namespace ppcmm
