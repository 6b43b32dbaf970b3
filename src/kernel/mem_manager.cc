#include "src/kernel/mem_manager.h"

#include "src/sim/check.h"

namespace ppcmm {

namespace {

// A page zero's store loop beyond the cache accesses: ~2 cycles per 4-byte store.
uint32_t ZeroLoopCyclesPerLine(uint32_t line) { return line / 4 * 2; }

}  // namespace

uint32_t MemManager::GetFreePage() {
  const std::optional<uint32_t> frame = TryGetFreePage();
  if (!frame.has_value()) {
    throw OutOfMemoryError(
        "out of physical memory in get_free_page(): allocator dry, reclaim freed nothing, "
        "prezeroed list empty");
  }
  return *frame;
}

std::optional<uint32_t> MemManager::TryGetFreePage() {
  HwCounters& counters = machine_.counters();
  if (injector_ != nullptr && injector_->ShouldFire(FaultClass::kPageAllocExhaustion)) {
    // Injected exhaustion: behave as if pool, reclaim, and prezeroed list all came up empty.
    return std::nullopt;
  }
  // The unconditional "is there a pre-cleared page?" check (§9: "the only overhead is a
  // check to see if there are any pre-cleared pages available").
  machine_.AddCycles(Cycles(2));
  const bool list_feeds_allocator = config_.idle_zero == IdleZeroPolicy::kCached ||
                                    config_.idle_zero == IdleZeroPolicy::kUncachedWithList;
  if (list_feeds_allocator && !prezeroed_.empty()) {
    const uint32_t frame = prezeroed_.back();
    prezeroed_.pop_back();
    ++counters.prezeroed_page_hits;
    machine_.AddCycles(Cycles(4));  // pop the lock-free list
    return frame;
  }

  std::optional<uint32_t> frame = allocator_.Alloc();
  if (!frame.has_value() && reclaim_) {
    // Memory pressure: shrink the page cache and retry (a kswapd in miniature).
    reclaim_(32);
    frame = allocator_.Alloc();
  }
  if (!frame.has_value() && !prezeroed_.empty()) {
    // Last resort: the idle task's hoard. These frames are zeroed already.
    const uint32_t hoarded = prezeroed_.back();
    prezeroed_.pop_back();
    ++counters.prezeroed_page_hits;
    return hoarded;
  }
  if (!frame.has_value()) {
    return std::nullopt;
  }
  ZeroFrameCharged(*frame, /*cached=*/true);
  ++counters.pages_zeroed_on_demand;
  return *frame;
}

void MemManager::FreePage(uint32_t frame) {
  machine_.AddCycles(Cycles(4));
  allocator_.DecRef(frame);
}

bool MemManager::IdleZeroDeclines() const {
  const bool keep_on_list = config_.idle_zero == IdleZeroPolicy::kCached ||
                            config_.idle_zero == IdleZeroPolicy::kUncachedWithList;
  // Leave headroom: don't starve the allocator by hoarding pages on the zeroed list.
  return config_.idle_zero == IdleZeroPolicy::kOff ||
         (keep_on_list && PrezeroedCount() >= kPrezeroListCap) ||
         allocator_.FreeCount() < 32;
}

bool MemManager::IdleZeroOnePage() {
  if (IdleZeroDeclines()) {
    return false;
  }
  HwCounters& counters = machine_.counters();
  const bool keep_on_list = config_.idle_zero == IdleZeroPolicy::kCached ||
                            config_.idle_zero == IdleZeroPolicy::kUncachedWithList;

  const std::optional<uint32_t> frame = allocator_.Alloc();
  if (!frame.has_value()) {
    return false;
  }
  const bool cached = config_.idle_zero == IdleZeroPolicy::kCached;
  ZeroFrameCharged(*frame, cached);
  ++counters.pages_zeroed_in_idle;

  if (keep_on_list) {
    prezeroed_.push_back(*frame);
  } else {
    // kUncachedNoList: the paper's control experiment — do the work, discard the benefit.
    allocator_.DecRef(*frame);
  }
  return true;
}

void MemManager::ZeroFrameCharged(uint32_t frame, bool cached) {
  // One charged store per line, as a single run (O(1) when uncached).
  const uint32_t line = machine_.config().dcache.line_bytes;
  const uint32_t lines = kPageSize / line;
  machine_.TouchDataRun(PhysAddr::FromFrame(frame), line, lines, /*is_write=*/true, cached);
  machine_.AddCycles(Cycles(uint64_t{lines} * ZeroLoopCyclesPerLine(line)));
  machine_.memory().ZeroFrame(frame);
}

uint64_t MemManager::IdleZeroCyclesBound() const {
  const uint32_t line = machine_.config().dcache.line_bytes;
  const MemoryTiming& timing = machine_.config().memory;
  const uint64_t store = config_.idle_zero == IdleZeroPolicy::kCached
                             ? timing.line_fill_cycles + timing.writeback_cycles
                             : timing.single_beat_cycles;
  return uint64_t{kPageSize / line} * (store + ZeroLoopCyclesPerLine(line));
}

}  // namespace ppcmm
