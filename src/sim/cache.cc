#include "src/sim/cache.h"

#include <bit>
#include <utility>

#include "src/sim/check.h"

namespace ppcmm {

namespace {

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

Cache::Cache(std::string name, CacheGeometry geometry, MemoryTiming timing)
    : name_(std::move(name)), geometry_(geometry), timing_(timing) {
  PPCMM_CHECK_MSG(IsPowerOfTwo(geometry_.line_bytes), "cache line size must be a power of two");
  PPCMM_CHECK_MSG(geometry_.associativity > 0, "cache must have at least one way");
  PPCMM_CHECK_MSG(geometry_.size_bytes % (geometry_.line_bytes * geometry_.associativity) == 0,
                  "cache size must be divisible by line size * associativity");
  PPCMM_CHECK_MSG(IsPowerOfTwo(geometry_.NumSets()), "number of sets must be a power of two");
  line_shift_ = static_cast<uint32_t>(std::countr_zero(geometry_.line_bytes));
  set_mask_ = geometry_.NumSets() - 1;
  tag_shift_ = line_shift_ + static_cast<uint32_t>(std::countr_zero(geometry_.NumSets()));
  lines_.resize(static_cast<size_t>(geometry_.NumSets()) * geometry_.associativity);
}

Cycles Cache::Access(PhysAddr pa, bool is_write) {
  const CacheAccessOutcome outcome = AccessLine(pa, is_write);
  if (outcome.hit) {
    return Cycles(1);
  }
  Cycles cost(timing_.line_fill_cycles);
  if (outcome.evicted_dirty) {
    cost += Cycles(timing_.writeback_cycles);
  }
  return cost;
}

Cycles Cache::Prefetch(PhysAddr pa) {
  ++stats_.prefetches;
  ++tick_;
  const uint32_t set = SetIndex(pa);
  const uint32_t tag = Tag(pa);
  Line* ways = &lines_[static_cast<size_t>(set) * geometry_.associativity];
  for (uint32_t w = 0; w < geometry_.associativity; ++w) {
    if (ways[w].valid && ways[w].tag == tag) {
      ways[w].last_used = tick_;
      return Cycles(1);  // already resident: just the issue slot
    }
  }
  // Install the line; the memory fill overlaps with the instructions that follow, so the
  // requester pays only the issue cost (the honest model would track overlap windows; the
  // two-cycle charge matches dcbt's pipeline occupancy).
  // The victim rule of TouchLine: the minimum last_used is the first invalid way, else LRU.
  Line* victim = &ways[0];
  for (uint32_t w = 0; w < geometry_.associativity; ++w) {
    victim = ways[w].last_used < victim->last_used ? &ways[w] : victim;
  }
  if (victim->valid) {
    ++stats_.evictions;
    if (victim->dirty) {
      ++stats_.dirty_writebacks;
    }
  }
  victim->valid = true;
  victim->dirty = false;
  victim->tag = tag;
  victim->last_used = tick_;
  return Cycles(2);
}

bool Cache::Contains(PhysAddr pa) const {
  const uint32_t set = SetIndex(pa);
  const uint32_t tag = Tag(pa);
  const Line* ways = &lines_[static_cast<size_t>(set) * geometry_.associativity];
  for (uint32_t w = 0; w < geometry_.associativity; ++w) {
    if (ways[w].valid && ways[w].tag == tag) {
      return true;
    }
  }
  return false;
}

void Cache::InvalidateAll() {
  for (Line& line : lines_) {
    line = Line{};
  }
}

uint32_t Cache::ValidLineCount() const {
  uint32_t count = 0;
  for (const Line& line : lines_) {
    if (line.valid) {
      ++count;
    }
  }
  return count;
}

}  // namespace ppcmm
