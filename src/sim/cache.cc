#include "src/sim/cache.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/sim/check.h"

namespace ppcmm {

namespace {

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

// Comparisons as full-width arithmetic. The sweep kernels use these instead of C++
// comparisons, which compile to flag-to-byte moves (setcc): such a move writes only the low
// byte of its register and so waits for that register's previous value, which can chain
// one line's way select to the next line's and serialise the whole sweep.
// 1 when a == b.
uint64_t Equal(uint32_t a, uint32_t b) { return (uint64_t{a ^ b} - 1) >> 63; }
// 1 when a < b; both must be below 2^63 (LRU stamps count accesses, so they are).
uint64_t Less(uint64_t a, uint64_t b) { return (a - b) >> 63; }

template <typename LineT>
uint64_t Holds(const LineT& line, uint32_t tag) {
  return uint64_t{line.valid} & Equal(line.tag, tag);
}

// The way TouchLine would use for `tag` in the set `ways`: the hit way, else the first way
// holding the smallest last_used (the first invalid way, else the LRU one). Branch-free:
// zeroing recycles frames that are partly resident in random ways, so a branch on the hit
// would mispredict. Index selects are masks and the LRU minima are std::min (a conditional
// move); at most one way holds the tag, so the hit way is the OR of the flagged indices.
// kWays = 0 reads the associativity at run time; 4 ways pick their victim through a
// two-level tree.
template <uint32_t kWays, typename LineT>
inline uint64_t SelectWay(const LineT* ways, uint32_t assoc, uint32_t tag, uint64_t* hit) {
  if constexpr (kWays == 4) {
    const uint64_t h1 = Holds(ways[1], tag);
    const uint64_t h2 = Holds(ways[2], tag);
    const uint64_t h3 = Holds(ways[3], tag);
    *hit = Holds(ways[0], tag) | h1 | h2 | h3;
    const uint64_t hit_way = h1 | (h2 << 1) | (h3 * 3);
    // Strict < at both levels keeps the lowest index on a tie, as the linear scan does.
    const uint64_t low = Less(ways[1].last_used, ways[0].last_used);
    const uint64_t high = Less(ways[3].last_used, ways[2].last_used);
    const uint64_t upper = Less(std::min(ways[2].last_used, ways[3].last_used),
                                std::min(ways[0].last_used, ways[1].last_used));
    const uint64_t lru = (upper << 1) | (low ^ ((low ^ high) & (0 - upper)));
    return hit_way | (lru & (*hit - 1));
  } else {
    const uint32_t n = kWays != 0 ? kWays : assoc;
    uint64_t any = Holds(ways[0], tag);
    uint64_t hit_way = 0;
    uint64_t lru = 0;
    uint64_t lru_used = ways[0].last_used;
    for (uint32_t w = 1; w < n; ++w) {
      const uint64_t h = Holds(ways[w], tag);
      any |= h;
      hit_way |= (0 - h) & w;
      lru ^= (lru ^ w) & (0 - Less(ways[w].last_used, lru_used));
      lru_used = std::min(lru_used, ways[w].last_used);
    }
    *hit = any;
    return hit_way | (lru & (any - 1));
  }
}

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

Cycles Cache::SweepLines(PhysAddr pa, uint32_t lines, bool is_write) {
  return SweepStreams<1>(pa, is_write, pa, is_write, lines);
}

Cycles Cache::SweepLinePairs(PhysAddr a, bool a_write, PhysAddr b, bool b_write,
                             uint32_t lines) {
  return SweepStreams<2>(a, a_write, b, b_write, lines);
}

template <uint32_t kStreams>
Cycles Cache::SweepStreams(PhysAddr a, bool a_write, PhysAddr b, bool b_write, uint32_t lines) {
  switch (geometry_.associativity) {
    case 1:
      return Sweep<1, kStreams>(a, a_write, b, b_write, lines);
    case 2:
      return Sweep<2, kStreams>(a, a_write, b, b_write, lines);
    case 4:
      return Sweep<4, kStreams>(a, a_write, b, b_write, lines);
    default:
      return Sweep<0, kStreams>(a, a_write, b, b_write, lines);
  }
}

template <uint32_t kWays, uint32_t kStreams>
Cycles Cache::Sweep(PhysAddr a, bool a_write, PhysAddr b, bool b_write, uint32_t lines) {
  const uint32_t assoc = kWays != 0 ? kWays : geometry_.associativity;
  uint64_t tick = tick_;
  uint64_t hits = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  // One access of one stream. Each stream's set index and tag live in registers: the next
  // line is set + 1, and the tag steps up exactly when the set index wraps to 0.
  const auto access = [&](uint32_t& set, uint32_t& tag, bool is_write) {
    Line* ways = &lines_[static_cast<size_t>(set) * assoc];
    uint64_t hit = 0;
    Line& line = ways[SelectWay<kWays>(ways, assoc, tag, &hit)];
    // TouchLine's outcome without its branches: a miss displaces whatever the way held.
    const uint64_t dirty = line.dirty;
    const uint64_t evict = (hit ^ 1) & uint64_t{line.valid};
    hits += hit;
    evictions += evict;
    writebacks += evict & dirty;
    line.valid = true;
    line.dirty = static_cast<bool>(hit & dirty) | is_write;
    line.tag = tag;
    line.last_used = ++tick;
    set = (set + 1) & set_mask_;
    tag += static_cast<uint32_t>(set == 0);
  };
  uint32_t a_set = SetIndex(a);
  uint32_t a_tag = Tag(a);
  uint32_t b_set = SetIndex(b);
  uint32_t b_tag = Tag(b);
  for (uint32_t i = 0; i < lines; ++i) {
    access(a_set, a_tag, a_write);
    if constexpr (kStreams == 2) {
      access(b_set, b_tag, b_write);
    }
  }
  const uint64_t accesses = uint64_t{lines} * kStreams;
  const uint64_t misses = accesses - hits;
  tick_ = tick;
  stats_.accesses += accesses;
  stats_.hits += hits;
  stats_.misses += misses;
  stats_.evictions += evictions;
  stats_.dirty_writebacks += writebacks;
  return Cycles(hits + misses * timing_.line_fill_cycles + writebacks * timing_.writeback_cycles);
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
