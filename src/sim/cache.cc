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
  return if_clear ^ ((if_clear ^ if_set) & mask);
}

uint64_t Sum(Lanes v) { return static_cast<uint64_t>(int64_t{v[0]} + v[1] + v[2] + v[3]); }

// The mask of a group that lies wholly inside a chunk. Passed as a constant into the
// forced-inline step, every `& active` on it folds away.
constexpr Lanes kWholeGroup = {-1, -1, -1, -1};

// One chunk's counts, per lane. A mask lane is -1, so subtracting a mask counts it.
struct Tally {
  Lanes hits{};
  Lanes cold_fills{};  // misses that filled an invalid way (the rest evict)
  Lanes writebacks{};
};

// One access per lane where `active` is set to the group at `group` (laid out as
// Cache::rows_ describes): TouchLine's outcome and update, branch-free. A way holds the
// line when its tag matches (an invalid way's kNoTag never does). The victim is the first
// way holding the smallest stamp, the first invalid way, else the LRU one, by strict <
// with the lower way winning ties; four ways pick it through a two-level tree. A miss
// displaces whatever the victim held: an eviction when its stamp is nonzero, a write-back
// when it was dirty (an invalid way's dirty bit is 0).
//
// The rows are read from the group in three passes (tags, stamps, then each way's update)
// rather than held across the access: the 4-way step's twelve rows plus its masks and
// tallies do not fit the sixteen SSE2 registers, and spilled rows cost more than rereading
// them from the host L1. A way's tag after the fill equals the access's tag exactly when
// the way hit or took the fill, so the update compares the new tag instead of keeping
// per-way hit masks. `kWrite` is the access's write flag, so the dirty update folds to
// `use ? 1 : d` for a store and `d & ~fill` for a load. Forced inline, as is SweepStep,
// with its way loops fully unrolled: at -O2 GCC does neither by itself.
template <uint32_t kWays, bool kWrite>
[[gnu::always_inline]] inline void AccessLanes(uint32_t* group, Lanes active, Lanes tag,
                                               Lanes stamp, Tally& tally) {
  constexpr size_t kField = kLanes * kWays;
  uint32_t* const tags = group;
  uint32_t* const stamps = group + kField;
  uint32_t* const dirty = group + 2 * kField;
  Lanes hit = Load(tags) == tag;
#pragma GCC unroll 4
  for (uint32_t w = 1; w < kWays; ++w) {
    hit |= Load(tags + kLanes * w) == tag;
  }
  tally.hits -= hit & active;
  const Lanes miss = ~hit & active;
  Lanes fill[kWays];  // the victim way of each missing lane
  if constexpr (kWays == 2) {
    const Lanes s0 = Load(stamps);
    const Lanes s1 = Load(stamps + kLanes);
    const Lanes second = s1 < s0;
    fill[0] = miss & ~second;
    fill[1] = miss & second;
    tally.cold_fills -= miss & ((s0 == 0) | (s1 == 0));
  } else {
    static_assert(kWays == 4);
    const Lanes s0 = Load(stamps);
    const Lanes s1 = Load(stamps + kLanes);
    const Lanes low = s1 < s0;
    const Lanes low_min = Select(low, s1, s0);
    const Lanes s2 = Load(stamps + 2 * kLanes);
    const Lanes s3 = Load(stamps + 3 * kLanes);
    const Lanes high = s3 < s2;
    const Lanes high_min = Select(high, s3, s2);
    const Lanes upper = high_min < low_min;
    tally.cold_fills -= miss & ((low_min == 0) | (high_min == 0));
    const Lanes lower_miss = miss & ~upper;
    const Lanes upper_miss = miss & upper;
    fill[0] = lower_miss & ~low;
    fill[1] = lower_miss & low;
    fill[2] = upper_miss & ~high;
    fill[3] = upper_miss & high;
  }
#pragma GCC unroll 4
  for (uint32_t w = 0; w < kWays; ++w) {
    uint32_t* const t = tags + kLanes * w;
    const Lanes new_tag = Select(fill[w], tag, Load(t));
    Store(t, new_tag);
    const Lanes use = (new_tag == tag) & active;
    uint32_t* const s = stamps + kLanes * w;
    Store(s, Select(use, stamp, Load(s)));
    uint32_t* const d = dirty + kLanes * w;
    const Lanes was_dirty = Load(d);
    tally.writebacks += fill[w] & was_dirty;
    Store(d, kWrite ? was_dirty | (use & 1) : was_dirty & ~fill[w]);
  }
}

// Per-chunk inputs, splatted once for the whole chunk: each stream's tag and stamp (stream
// b's is the tick after stream a's).
struct ChunkLanes {
  Lanes tag_a;
  Lanes tag_b;
  Lanes stamp_a;
  Lanes stamp_b;
};

// Accesses the `active` lanes of one group of four sets once per stream, stream a before
// stream b in each set.
template <uint32_t kWays, uint32_t kStreams, bool kWriteA, bool kWriteB>
[[gnu::always_inline]] inline void SweepStep(uint32_t* group, Lanes active,
                                             const ChunkLanes& in, Tally& tally) {
  AccessLanes<kWays, kWriteA>(group, active, in.tag_a, in.stamp_a, tally);
  if constexpr (kStreams == 2) {
    AccessLanes<kWays, kWriteB>(group, active, in.tag_b, in.stamp_b, tally);
  }
}

struct ChunkCounts {
  uint64_t hits = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
};

// One chunk: the sets [set, end), each visited once per stream, which no other set's
// lines depend on, so they go a group of four at a time. Only the (at most two) groups
// that straddle an end of [set, end) take a lane mask; the groups inside it run with
// kWholeGroup. The stream write flags are template arguments, so each (associativity,
// streams, flags) case is its own loop.
template <uint32_t kWays, uint32_t kStreams, bool kWriteA, bool kWriteB>
void SweepChunk(uint32_t* rows, size_t set, size_t end, ChunkLanes in, ChunkCounts* counts) {
  constexpr size_t kGroupWords = 3 * kLanes * kWays;
  const auto edge = [&](size_t g) {
    const Lanes lane = Lanes{0, 1, 2, 3} + static_cast<int32_t>(g * kLanes);
    return (lane >= static_cast<int32_t>(set)) & (lane < static_cast<int32_t>(end));
  };
  Tally tally;
  const size_t first_whole = (set + kLanes - 1) / kLanes;
  const size_t end_whole = end / kLanes;
  if (first_whole > end_whole) {
    // [set, end) starts and ends inside one group.
    SweepStep<kWays, kStreams, kWriteA, kWriteB>(rows + end_whole * kGroupWords,
                                                 edge(end_whole), in, tally);
  } else {
    if (set % kLanes != 0) {
      SweepStep<kWays, kStreams, kWriteA, kWriteB>(rows + (first_whole - 1) * kGroupWords,
                                                   edge(first_whole - 1), in, tally);
    }
    for (size_t g = first_whole; g < end_whole; ++g) {
      SweepStep<kWays, kStreams, kWriteA, kWriteB>(rows + g * kGroupWords, kWholeGroup, in,
                                                   tally);
    }
    if (end % kLanes != 0) {
      SweepStep<kWays, kStreams, kWriteA, kWriteB>(rows + end_whole * kGroupWords,
                                                   edge(end_whole), in, tally);
    }
  }
  const uint64_t hits = Sum(tally.hits);
  counts->hits += hits;
  counts->evictions += (end - set) * kStreams - hits - Sum(tally.cold_fills);
  counts->writebacks += Sum(tally.writebacks);
}

using ChunkFn = void (*)(uint32_t*, size_t, size_t, ChunkLanes, ChunkCounts*);

// The chunk loop for one associativity and stream count, picked once per sweep from the
// write flags (stream b's flag is ignored for one stream).
template <uint32_t kWays, uint32_t kStreams>
ChunkFn PickChunk(bool a_write, bool b_write) {
  if constexpr (kStreams == 1) {
    return a_write ? &SweepChunk<kWays, 1, true, true> : &SweepChunk<kWays, 1, false, false>;
  } else {
    if (a_write) {
      return b_write ? &SweepChunk<kWays, 2, true, true> : &SweepChunk<kWays, 2, true, false>;
    }
    return b_write ? &SweepChunk<kWays, 2, false, true> : &SweepChunk<kWays, 2, false, false>;
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

Cycles Cache::RunGroups(PhysAddr pa, uint32_t stride, uint32_t count, bool is_write) {
  const uint32_t line = geometry_.line_bytes;
  const bool aligned = (stride & (stride - 1)) == 0 && (pa.value & (stride - 1)) == 0;
  const auto stride_shift = static_cast<uint32_t>(std::countr_zero(stride));
  Cycles cycles;
  uint32_t i = 0;
  while (i < count) {
    const PhysAddr cur(pa.value + i * stride);
    const uint32_t line_left = line - (cur.value & (line - 1));
    if (aligned && line_left == line) {
      const uint32_t group_shift = line_shift_ - stride_shift;
      const uint32_t lines = (count - i) >> group_shift;
      if (lines >= kMinSweepLines) {
        cycles += SweepLines(cur, lines, is_write, 1u << group_shift);
        i += lines << group_shift;
        continue;
      }
    }
    const uint32_t reps = std::min(
        count - i, aligned ? line_left >> stride_shift : (line_left - 1) / stride + 1);
    cycles += AccessLineRun(cur, is_write, reps);
    i += reps;
  }
  return cycles;
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
  const ChunkFn chunk = assoc == 2 ? PickChunk<2, kStreams>(a_write, b_write)
                                   : PickChunk<4, kStreams>(a_write, b_write);
  uint32_t tag_a = Tag(a);
  uint32_t tag_b = Tag(b);
  const size_t sets = size_t{set_mask_} + 1;  // NumSets() without its two divisions
  size_t set = SetIndex(a);
  ChunkCounts counts;
  for (uint32_t left = lines; left > 0;) {
    const size_t n = std::min<size_t>(left, sets - set);
    const uint32_t stamp = NextStamps(kStreams);
    const ChunkLanes in{.tag_a = Splat(tag_a), .tag_b = Splat(tag_b), .stamp_a = Splat(stamp),
                        .stamp_b = Splat(stamp + 1)};
    chunk(rows_.data(), set, set + n, in, &counts);
    left -= static_cast<uint32_t>(n);
    set += n;
    if (set == sets) {
      set = 0;
      ++tag_a;
      ++tag_b;
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
