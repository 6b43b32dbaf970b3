// A miniature page cache and file layer.
//
// Files are page-granular objects whose data lives in allocator-owned frames once read. The
// LmBench "file reread" test and the kernel-compile workload's source/object traffic run
// through this layer, so file reads produce real kernel data-cache and copy traffic.
// Disk transfers themselves are DMA and cost no CPU cycles here; callers model the wait by
// running the idle task for the duration (see Kernel::SimulateIoWait).

#ifndef PPCMM_SRC_KERNEL_PAGE_CACHE_H_
#define PPCMM_SRC_KERNEL_PAGE_CACHE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/kernel/mem_manager.h"
#include "src/sim/machine.h"

namespace ppcmm {

// File handle.
struct FileId {
  uint32_t value = 0;
  constexpr auto operator<=>(const FileId&) const = default;
};

// The system-wide page cache.
class PageCache {
 public:
  PageCache(Machine& machine, MemManager& mem) : machine_(machine), mem_(mem) {}

  // Creates a file of `size_pages` pages. Contents are synthesized deterministically from
  // (file id, page number) on first access.
  FileId CreateFile(uint32_t size_pages);

  // Deletes a file, dropping its cached pages.
  void DeleteFile(FileId file);

  uint32_t SizePages(FileId file) const;

  // Returns the frame caching page `page` of `file`, filling it on a miss. `was_miss` (if
  // non-null) reports whether disk had to be touched. Charges the lookup (one kernel data
  // reference, a radix-tree-ish probe, plus its instructions) and, on a miss, the I/O
  // submission overhead; the fill itself is DMA, so its frame writes charge nothing.
  uint32_t GetPage(FileId file, uint32_t page, bool* was_miss = nullptr);

  bool IsCached(FileId file, uint32_t page) const;

  // Drops every cached page of `file` (e.g. to measure cold rereads).
  void EvictFile(FileId file);

  // Memory pressure: evicts up to `target` cached pages that nothing else references
  // (refcount 1 — not currently mapped by any task). Returns the number freed.
  uint32_t ReclaimPages(uint32_t target);

  uint32_t CachedPageCount() const;

  uint64_t cache_hits() const { return hits_; }
  uint64_t cache_misses() const { return misses_; }

 private:
  struct File {
    uint32_t size_pages = 0;
    std::map<uint32_t, uint32_t> pages;  // file page -> frame
  };

  Machine& machine_;
  MemManager& mem_;
  // Ordered by file id: ReclaimPages frees frames in iteration order, so the container's
  // order is simulated-state-visible and must not depend on the host's hash seed.
  std::map<uint32_t, File> files_;
  uint32_t next_file_ = 1;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_KERNEL_PAGE_CACHE_H_
