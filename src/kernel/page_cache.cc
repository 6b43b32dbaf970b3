#include "src/kernel/page_cache.h"

#include <array>

#include "src/kernel/layout.h"
#include "src/sim/check.h"

namespace ppcmm {

FileId PageCache::CreateFile(uint32_t size_pages) {
  const FileId id{next_file_++};
  files_[id.value] = File{.size_pages = size_pages, .pages = {}};
  return id;
}

void PageCache::DeleteFile(FileId file) {
  auto it = files_.find(file.value);
  PPCMM_CHECK_MSG(it != files_.end(), "DeleteFile on unknown file " << file.value);
  for (const auto& [page, frame] : it->second.pages) {
    mem_.FreePage(frame);
  }
  files_.erase(it);
}

uint32_t PageCache::SizePages(FileId file) const {
  auto it = files_.find(file.value);
  PPCMM_CHECK_MSG(it != files_.end(), "SizePages on unknown file " << file.value);
  return it->second.size_pages;
}

uint32_t PageCache::GetPage(FileId file, uint32_t page, bool* was_miss) {
  auto it = files_.find(file.value);
  PPCMM_CHECK_MSG(it != files_.end(), "GetPage on unknown file " << file.value);
  File& f = it->second;
  PPCMM_CHECK_MSG(page < f.size_pages,
                  "GetPage beyond EOF: page " << page << " of " << f.size_pages);

  // Page-cache lookup: a couple of kernel data references into the inode/radix structures,
  // charged at the file's bookkeeping address in the kernel misc area.
  const PhysAddr lookup_pa(kPageCacheLookupPhysBase + (file.value % 512) * 64);
  machine_.TouchData(lookup_pa, /*is_write=*/false);
  machine_.AddCycles(Cycles(8));

  auto cached = f.pages.find(page);
  if (cached != f.pages.end()) {
    ++hits_;
    if (was_miss != nullptr) {
      *was_miss = false;
    }
    return cached->second;
  }

  ++misses_;
  if (was_miss != nullptr) {
    *was_miss = true;
  }
  const uint32_t frame = mem_.GetFreePage();
  // Synthesize deterministic contents so data-integrity tests can verify copies end to end.
  std::array<uint32_t, kPageSize / 4> words{};
  for (uint32_t i = 0; i < words.size(); ++i) {
    words[i] = (file.value * 0x9E3779B9u) ^ (page << 16) ^ (i * 4);
  }
  machine_.memory().Write(PhysAddr::FromFrame(frame), words.data(), kPageSize);
  // I/O submission overhead (the DMA itself is free CPU-wise; the caller models the wait).
  machine_.AddCycles(Cycles(1200));
  f.pages.emplace(page, frame);
  return frame;
}

bool PageCache::IsCached(FileId file, uint32_t page) const {
  auto it = files_.find(file.value);
  if (it == files_.end()) {
    return false;
  }
  return it->second.pages.contains(page);
}

uint32_t PageCache::ReclaimPages(uint32_t target) {
  uint32_t freed = 0;
  for (auto& [file_id, file] : files_) {
    for (auto it = file.pages.begin(); it != file.pages.end() && freed < target;) {
      if (mem_.allocator().RefCount(it->second) == 1) {
        machine_.AddCycles(Cycles(60));  // shrink-list scan + unhash
        mem_.FreePage(it->second);
        it = file.pages.erase(it);
        ++freed;
      } else {
        ++it;  // mapped by somebody: not reclaimable
      }
    }
    if (freed >= target) {
      break;
    }
  }
  return freed;
}

uint32_t PageCache::CachedPageCount() const {
  uint32_t count = 0;
  for (const auto& [file_id, file] : files_) {
    count += static_cast<uint32_t>(file.pages.size());
  }
  return count;
}

void PageCache::EvictFile(FileId file) {
  auto it = files_.find(file.value);
  PPCMM_CHECK_MSG(it != files_.end(), "EvictFile on unknown file " << file.value);
  for (const auto& [page, frame] : it->second.pages) {
    mem_.FreePage(frame);
  }
  it->second.pages.clear();
}

}  // namespace ppcmm
