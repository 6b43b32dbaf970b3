// get_free_page() and the idle task's pre-zeroed page list (§9 of the paper).
//
// Demand path: allocate a frame and zero it through the data cache — 128 line-allocating
// stores that both cost time and pollute the cache with lines the requester will overwrite
// anyway. Idle path (policy dependent): the idle task zeroes free frames ahead of time,
// through or around the cache, and optionally stashes them on a list that get_free_page()
// consumes. The paper measured all three variants; all three are here.

#ifndef PPCMM_SRC_KERNEL_MEM_MANAGER_H_
#define PPCMM_SRC_KERNEL_MEM_MANAGER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/kernel/opt_config.h"
#include "src/pagetable/page_allocator.h"
#include "src/sim/machine.h"
#include "src/sim/fault_injector.h"

namespace ppcmm {

// Cap on the pre-zeroed list (pages); beyond it the idle task stops zeroing.
constexpr uint32_t kPrezeroListCap = 64;

// Kernel-level page supplier.
class MemManager {
 public:
  MemManager(Machine& machine, PageAllocator& allocator, const OptimizationConfig& config)
      : machine_(machine), allocator_(allocator), config_(config) {}

  // Installs the memory-pressure hook: called with a target frame count when the allocator
  // runs dry; returns how many frames it freed (the kernel wires this to page-cache
  // eviction).
  void SetReclaimHook(std::function<uint32_t(uint32_t)> hook) { reclaim_ = std::move(hook); }

  // Optional fault injection (kPageAllocExhaustion); null = never fires.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  // get_free_page(): returns a zeroed frame. Checks the pre-zeroed list first (a couple of
  // cycles — the paper argues this check is the only overhead the feature adds), zeroing on
  // demand otherwise. Reclaims from the page cache under memory pressure. Throws
  // OutOfMemoryError once every recovery avenue is exhausted.
  uint32_t GetFreePage();

  // GetFreePage minus the throw: nullopt means genuinely out of memory after degradation
  // (prezeroed list → allocator → reclaim → drain the prezeroed list).
  std::optional<uint32_t> TryGetFreePage();

  // Releases one reference to a frame.
  void FreePage(uint32_t frame);

  // One idle-task zeroing step: zero one free frame per the configured policy. Returns true
  // if a page was zeroed (false when the policy is off, the list is full, or RAM is tight).
  bool IdleZeroOnePage();
  // Whether IdleZeroOnePage would decline now: the policy is off, the list is full, or RAM
  // is tight. Only allocations and frees change the answer.
  bool IdleZeroDeclines() const;

  // An upper bound on the cycles one IdleZeroOnePage zero costs under the configured
  // policy: every cached store missing onto a dirty victim, or each uncached store's single
  // beat (exact: uncached stores neither read nor leave any cache state), plus the loop.
  uint64_t IdleZeroCyclesBound() const;

  uint32_t PrezeroedCount() const { return static_cast<uint32_t>(prezeroed_.size()); }
  PageAllocator& allocator() { return allocator_; }

 private:
  // Zeroes `frame` with one charged store per line, through the cache or around it (one
  // Machine::TouchDataRun; O(1) when uncached).
  void ZeroFrameCharged(uint32_t frame, bool cached);

  Machine& machine_;
  PageAllocator& allocator_;
  const OptimizationConfig& config_;
  std::vector<uint32_t> prezeroed_;
  std::function<uint32_t(uint32_t)> reclaim_;
  FaultInjector* injector_ = nullptr;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_KERNEL_MEM_MANAGER_H_
