#include "src/sim/cache.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "src/sim/check.h"

namespace ppcmm {

namespace {

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

// The sweep kernel's lanes: a GCC/Clang generic vector of four 32-bit words, one lane per
// cache set. It lowers to SSE2 on baseline x86-64 (NEON on AArch64) with no -march flag
// and no intrinsics header. The lanes are signed so stamp comparisons are SSE2's signed
// compare (stamps stay below 2^31); tags and dirty bits are only tested for equality or
// masked. A comparison yields -1 (all ones) in each lane where it holds, 0 elsewhere.
using Lanes = int32_t __attribute__((vector_size(16)));
constexpr size_t kLanes = 4;

Lanes Load(const uint32_t* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void Store(uint32_t* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

Lanes Splat(uint32_t x) { return Lanes{} + static_cast<int32_t>(x); }

Lanes Select(Lanes mask, Lanes if_set, Lanes if_clear) {
  return (if_set & mask) | (if_clear & ~mask);
}

uint64_t Sum(Lanes v) { return static_cast<uint64_t>(int64_t{v[0]} + v[1] + v[2] + v[3]); }

// One chunk's counts, per lane. A mask lane is -1, so subtracting a mask counts it.
struct Tally {
  Lanes hits{};
  Lanes evictions{};
  Lanes writebacks{};
};

// The rows of `kWays` ways for the lanes' sets, held in registers across a chunk step.
template <uint32_t kWays>
struct SetLanes {
  Lanes tag[kWays];
  Lanes stamp[kWays];
  Lanes dirty[kWays];
};

// One access per lane where `active` is set: TouchLine's outcome and update, branch-free.
// A way holds the line when its tag matches (an invalid way's kNoTag never does). The
// victim is the first way holding the smallest stamp — the first invalid way, else the
// LRU one — by strict < with the lower way winning ties; four ways pick it through a
// two-level tree. A miss displaces whatever the victim held: an eviction when its stamp is
// nonzero, a write-back when it was dirty (an invalid way's dirty bit is 0). Forced
// inline, as is SweepStep, and its way loops fully unrolled: at -O2 GCC does neither by
// itself, and the lanes then go through memory on every access.
template <uint32_t kWays>
[[gnu::always_inline]] inline void AccessLanes(SetLanes<kWays>& s, Lanes active, Lanes tag,
                                               Lanes stamp, Lanes write, Tally& tally) {
  Lanes hit_way[kWays];
  Lanes hit{};
#pragma GCC unroll 4
  for (uint32_t w = 0; w < kWays; ++w) {
    hit_way[w] = s.tag[w] == tag;
    hit |= hit_way[w];
  }
  Lanes victim[kWays];
  Lanes oldest;  // the victim's stamp, the set's smallest
  if constexpr (kWays == 2) {
    victim[1] = s.stamp[1] < s.stamp[0];
    victim[0] = ~victim[1];
    oldest = Select(victim[1], s.stamp[1], s.stamp[0]);
  } else {
    static_assert(kWays == 4);
    const Lanes low = s.stamp[1] < s.stamp[0];
    const Lanes high = s.stamp[3] < s.stamp[2];
    const Lanes low_min = Select(low, s.stamp[1], s.stamp[0]);
    const Lanes high_min = Select(high, s.stamp[3], s.stamp[2]);
    const Lanes upper = high_min < low_min;
    victim[0] = ~upper & ~low;
    victim[1] = ~upper & low;
    victim[2] = upper & ~high;
    victim[3] = upper & high;
    oldest = Select(upper, high_min, low_min);
  }
  const Lanes miss = ~hit & active;
  Lanes victim_dirty{};
#pragma GCC unroll 4
  for (uint32_t w = 0; w < kWays; ++w) {
    victim_dirty |= victim[w] & s.dirty[w];
  }
  tally.hits -= hit & active;
  tally.evictions -= miss & (oldest != 0);
  tally.writebacks += miss & victim_dirty;
#pragma GCC unroll 4
  for (uint32_t w = 0; w < kWays; ++w) {
    const Lanes use = (hit_way[w] & active) | (victim[w] & miss);
    s.tag[w] = Select(use, tag, s.tag[w]);
    s.stamp[w] = Select(use, stamp, s.stamp[w]);
    s.dirty[w] = Select(use, (hit & s.dirty[w]) | write, s.dirty[w]);
  }
}

// Per-stream inputs of one chunk: the tag every line of the chunk has and its dirty bit
// on access (the write flag).
struct Stream {
  uint32_t tag;
  uint32_t write;
};

// Accesses the `active` lanes of one group of four sets (`group` points at its first word,
// laid out as Cache::rows_ describes) once per stream, stream a before stream b in each
// set, stamping stream k with `stamp + k`.
template <uint32_t kWays, uint32_t kStreams>
[[gnu::always_inline]] inline void SweepStep(uint32_t* group, Lanes active,
                                             const Stream* streams, uint32_t stamp,
                                             Tally& tally) {
  constexpr size_t kField = kLanes * kWays;
  SetLanes<kWays> s;
#pragma GCC unroll 4
  for (uint32_t w = 0; w < kWays; ++w) {
    s.tag[w] = Load(group + kLanes * w);
    s.stamp[w] = Load(group + kField + kLanes * w);
    s.dirty[w] = Load(group + 2 * kField + kLanes * w);
  }
#pragma GCC unroll 2
  for (uint32_t k = 0; k < kStreams; ++k) {
    AccessLanes(s, active, Splat(streams[k].tag), Splat(stamp + k), Splat(streams[k].write),
                tally);
  }
#pragma GCC unroll 4
  for (uint32_t w = 0; w < kWays; ++w) {
    Store(group + kLanes * w, s.tag[w]);
    Store(group + kField + kLanes * w, s.stamp[w]);
    Store(group + 2 * kField + kLanes * w, s.dirty[w]);
  }
}

struct ChunkCounts {
  uint64_t hits = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
};

// One chunk: the sets [set, end), each visited once per stream, which no other set's
// lines depend on, so they go a group of four at a time. The lanes of the first and last
// group that fall outside [set, end) are masked off.
template <uint32_t kWays, uint32_t kStreams>
void SweepChunk(uint32_t* rows, size_t set, size_t end, const Stream* streams,
                uint32_t stamp, ChunkCounts* counts) {
  constexpr size_t kGroupWords = 3 * kLanes * kWays;
  const auto first = static_cast<int32_t>(set);
  const auto last = static_cast<int32_t>(end);
  Tally tally;
  for (size_t g = set / kLanes; g * kLanes < end; ++g) {
    const Lanes lane = Lanes{0, 1, 2, 3} + static_cast<int32_t>(g * kLanes);
    const Lanes active = (lane >= first) & (lane < last);
    SweepStep<kWays, kStreams>(rows + g * kGroupWords, active, streams, stamp, tally);
  }
  counts->hits += Sum(tally.hits);
  counts->evictions += Sum(tally.evictions);
  counts->writebacks += Sum(tally.writebacks);
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
  PPCMM_CHECK_MSG(tag_shift_ > 0, "a one-set cache of one-byte lines has no spare tag");
  field_words_ = kSetGroup * geometry_.associativity;
  const size_t groups = (geometry_.NumSets() + kSetGroup - 1) / kSetGroup;
  rows_.resize(groups * 3 * field_words_);
  InvalidateAll();
}

void Cache::RenumberStamps() {
  // Each set's valid stamps are distinct and positive; they become 1, 2, ... in the same
  // order, in place: the r-th smallest of distinct positive stamps is at least r, and the
  // ones already renumbered are below r, so the next to renumber is the smallest stamp
  // still >= r. Invalid lines keep 0.
  for (uint32_t set = 0; set < geometry_.NumSets(); ++set) {
    uint32_t* stamps = SetWords(set) + field_words_;
    for (uint32_t rank = 1;; ++rank) {
      uint32_t* next = nullptr;
      for (size_t w = 0; w < field_words_; w += kSetGroup) {
        uint32_t& stamp = stamps[w];
        if (stamp >= rank && (next == nullptr || stamp < *next)) {
          next = &stamp;
        }
      }
      if (next == nullptr) {
        break;
      }
      *next = rank;
    }
  }
  tick_ = geometry_.associativity;
}

void Cache::AdvanceLruClock(uint32_t tick) {
  PPCMM_CHECK_MSG(tick >= tick_ && tick <= kMaxStamp, "the LRU clock only moves forward");
  tick_ = tick;
}

template <uint32_t kStreams>
Cycles Cache::SweepSets(PhysAddr a, bool a_write, PhysAddr b, bool b_write, uint32_t lines,
                        uint32_t repeat) {
  static_assert(kSetGroup == kLanes, "a set group is one lane vector");
  const uint32_t assoc = geometry_.associativity;
  if ((assoc != 2 && assoc != 4) || (kStreams == 2 && SetIndex(a) != SetIndex(b))) {
    // Other associativities, and pairs whose streams sit in different sets (one stream's
    // chunk would then revisit the other's sets), go one line at a time.
    const uint32_t line = geometry_.line_bytes;
    Cycles cycles;
    for (uint32_t i = 0; i < lines; ++i) {
      cycles += AccessLineRun(a + i * line, a_write, repeat);
      if constexpr (kStreams == 2) {
        cycles += Access(b + i * line, b_write);
      }
    }
    return cycles;
  }
  // A chunk is a run of lines from `set` up to the last set: each of its sets is visited
  // once per stream, and every line of a stream has the same tag. Stamps only order the
  // lines within a set, so a chunk takes one tick per stream.
  Stream streams[2] = {{.tag = Tag(a), .write = a_write}, {.tag = Tag(b), .write = b_write}};
  const size_t sets = size_t{set_mask_} + 1;  // NumSets() without its two divisions
  size_t set = SetIndex(a);
  ChunkCounts counts;
  for (uint32_t left = lines; left > 0;) {
    const size_t n = std::min<size_t>(left, sets - set);
    const uint32_t stamp = NextStamps(kStreams);
    if (assoc == 2) {
      SweepChunk<2, kStreams>(rows_.data(), set, set + n, streams, stamp, &counts);
    } else {
      SweepChunk<4, kStreams>(rows_.data(), set, set + n, streams, stamp, &counts);
    }
    left -= static_cast<uint32_t>(n);
    set += n;
    if (set == sets) {
      set = 0;
      ++streams[0].tag;
      ++streams[1].tag;
    }
  }
  // Each line's repeats hit the line its first access left resident.
  const uint64_t accesses = uint64_t{lines} * kStreams * repeat;
  counts.hits += accesses - uint64_t{lines} * kStreams;
  const uint64_t misses = accesses - counts.hits;
  stats_.accesses += accesses;
  stats_.hits += counts.hits;
  stats_.misses += misses;
  stats_.evictions += counts.evictions;
  stats_.dirty_writebacks += counts.writebacks;
  return Cycles(counts.hits + misses * timing_.line_fill_cycles +
                counts.writebacks * timing_.writeback_cycles);
}

template Cycles Cache::SweepSets<1>(PhysAddr, bool, PhysAddr, bool, uint32_t, uint32_t);
template Cycles Cache::SweepSets<2>(PhysAddr, bool, PhysAddr, bool, uint32_t, uint32_t);

bool Cache::Contains(PhysAddr pa) const {
  const uint32_t tag = Tag(pa);
  const uint32_t* tags = SetWords(SetIndex(pa));
  for (size_t w = 0; w < field_words_; w += kSetGroup) {
    if (tags[w] == tag) {
      return true;
    }
  }
  return false;
}

void Cache::InvalidateAll() {
  for (size_t i = 0; i < rows_.size(); ++i) {
    rows_[i] = i % (3 * field_words_) < field_words_ ? kNoTag : 0;  // the tag field, else 0
  }
}

uint32_t Cache::ValidLineCount() const {
  uint32_t count = 0;
  for (uint32_t set = 0; set < geometry_.NumSets(); ++set) {
    const uint32_t* tags = SetWords(set);
    for (size_t w = 0; w < field_words_; w += kSetGroup) {
      count += tags[w] != kNoTag ? 1 : 0;
    }
  }
  return count;
}

}  // namespace ppcmm
