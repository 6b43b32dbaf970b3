// Set-associative level-1 cache model with LRU replacement, write-back write-allocate
// policy, and support for cache-inhibited (WIMG "I"-bit) accesses.
//
// The cache is physically indexed and physically tagged, as on the 603/604 L1 caches for
// our purposes. Timing: a hit costs 1 cycle; a miss costs the line-fill latency plus a
// write-back penalty when the victim line is dirty; a cache-inhibited access costs the
// single-beat memory latency and never allocates a line — this is exactly the lever the
// paper pulls in §8 (uncached page tables) and §9 (uncached page clearing).

#ifndef PPCMM_SRC_SIM_CACHE_H_
#define PPCMM_SRC_SIM_CACHE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/cycle_types.h"
#include "src/sim/machine_config.h"
#include "src/sim/phys_addr.h"

namespace ppcmm {

// Counters maintained by one cache instance.
struct CacheStats {
  uint64_t accesses = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;          // valid lines displaced by fills
  uint64_t dirty_writebacks = 0;   // displaced lines that were dirty
  uint64_t uncached_accesses = 0;  // cache-inhibited accesses (never allocate)
  uint64_t prefetches = 0;         // dcbt-style software prefetches issued

  double HitRate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(accesses);
  }
};

// Outcome of one line-level access: what Access prices.
struct CacheAccessOutcome {
  bool hit = false;
  bool evicted_dirty = false;  // a dirty victim line was displaced (write-back traffic)
};

// One L1 cache (instruction or data).
class Cache {
 public:
  Cache(std::string name, CacheGeometry geometry, MemoryTiming timing);

  // Performs one cached access to the line containing `pa` and returns its cycles: 1 on a
  // hit, else the line fill plus the write-back of a dirty victim. Defined inline: this is
  // the hottest function in the whole simulator (it is the body of Machine::TouchData and
  // TouchInstruction), and the call would otherwise cross a translation-unit boundary.
  Cycles Access(PhysAddr pa, bool is_write) {
    ++stats_.accesses;
    const CacheAccessOutcome outcome = TouchLine(pa, is_write);
    if (outcome.hit) {
      ++stats_.hits;
      return Cycles(1);
    }
    ++stats_.misses;
    return Cycles(timing_.line_fill_cycles +
                  (outcome.evicted_dirty ? timing_.writeback_cycles : 0));
  }

  // `count` accesses from `pa` upwards, each `stride` bytes after the previous, and their
  // cycles — bit-identical to `count` Access calls (state, counters and cycles). The one
  // place a run is split into lines; every Machine run charge ends here. Addresses only
  // increase, so each line is visited in one contiguous group whose first access is the
  // only one that can miss. By stride:
  //   0           the same address `count` (> 0) times: one line group (the idle loop's
  //               refetches, the context switch's registers per task-structure line);
  //   the line    one sweep (page zeroing, user fetches and copies) once the run has at
  //               least kMinSweepLines lines, else one Access per line;
  //   below it    a run within two lines (a PTEG probe, a short PTE read) is one group
  //               per line, inline; longer ones go to RunGroups (cache.cc);
  //   above it    every access is its own line: one Access each.
  Cycles Run(PhysAddr pa, uint32_t stride, uint32_t count, bool is_write) {
    const uint32_t line = geometry_.line_bytes;
    if (stride == 0) {
      return AccessLineRun(pa, is_write, count);
    }
    if (stride < line) {
      const uint64_t last = pa.value + uint64_t{count - 1} * stride;
      const uint32_t first_line = pa.value >> line_shift_;
      if (last >> line_shift_ == first_line) {
        return AccessLineRun(pa, is_write, count);
      }
      if (last >> line_shift_ == first_line + 1) {
        // The accesses below the next line boundary: ceil(line_left / stride), a shift for
        // a power-of-two stride (the PTEG's 8 bytes).
        const uint32_t line_left = line - (pa.value & (line - 1));
        const uint32_t first = (stride & (stride - 1)) == 0
                                   ? (line_left + stride - 1) >> std::countr_zero(stride)
                                   : (line_left + stride - 1) / stride;
        return AccessLineRun(pa, is_write, first) +
               AccessLineRun(pa + first * stride, is_write, count - first);
      }
      return RunGroups(pa, stride, count, is_write);
    }
    if (stride == line && count >= kMinSweepLines) {
      return SweepLines(pa, count, is_write);
    }
    Cycles cycles;
    for (uint32_t i = 0; i < count; ++i) {
      cycles += Access(pa + i * stride, is_write);
    }
    return cycles;
  }

  // SweepLinePairs: for each i < `lines`, line i of `a` then line i of `b` (a copy's load
  // and store interleaved, as the two streams compete for the same sets), charged in one
  // out-of-line pass of the set-parallel sweep kernel; bit-identical to one Access per
  // access.
  Cycles SweepLinePairs(PhysAddr a, bool a_write, PhysAddr b, bool b_write, uint32_t lines) {
    return SweepSets<2>(a, a_write, b, b_write, lines, 1);
  }

  // `n` cache-inhibited accesses: each costs the single-beat memory latency and neither
  // looks up nor allocates a line, so the batch is a counter add and one multiply.
  Cycles Uncached(uint32_t n) {
    stats_.uncached_accesses += n;
    return Cycles(static_cast<uint64_t>(timing_.single_beat_cycles) * n);
  }

  // dcbt-style software prefetch: installs the line containing `pa` if absent, as a load's
  // fill would, but counts as a prefetch rather than an access. The fill overlaps with the
  // instructions that follow, so only the issue cost is charged — 1 cycle when the line is
  // resident, 2 (dcbt's pipeline occupancy) when it is installed — the paper's §10.2
  // "provide hints to the hardware about access patterns".
  Cycles Prefetch(PhysAddr pa) {
    ++stats_.prefetches;
    return Cycles(TouchLine(pa, /*is_write=*/false).hit ? 1 : 2);
  }

  // Returns true if the line containing `pa` is currently resident.
  bool Contains(PhysAddr pa) const;

  // Invalidates every line without writing anything back (simulation-level reset).
  void InvalidateAll();

  // Number of currently valid lines (occupancy probe for pollution experiments).
  uint32_t ValidLineCount() const;

  // Largest LRU stamp. Stamps stay below 2^31 so the sweep kernel compares them as signed
  // lanes, the one comparison baseline SSE2 has.
  static constexpr uint32_t kMaxStamp = 0x7fffffffu;

  // Moves the LRU clock forward to `tick` (at least the current tick, at most kMaxStamp)
  // without touching a line. Stamps only order the lines within a set, so this changes no
  // outcome; it lets tests reach the point where the stamps are renumbered.
  void AdvanceLruClock(uint32_t tick);

  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }
  const CacheGeometry& geometry() const { return geometry_; }
  const std::string& name() const { return name_; }

 private:
  // Tag of an invalid line: Tag() shifts a 32-bit address right by at least one bit
  // (checked at construction), so no address has it.
  static constexpr uint32_t kNoTag = 0xffffffffu;

  // One touch of the line containing `pa` in a single pass over the set's ways: the pass
  // finds the hit, or else remembers the victim — the first invalid way, otherwise the
  // least recently used one (strict <, so the lowest way wins a tie). Both fall out of one
  // minimum over the stamps: an invalid line's stamp is always 0 (lines start that way and
  // are only invalidated wholesale, by InvalidateAll), while a valid line's is at least 1
  // because every touch takes the next tick of the clock. Counts what a fill displaces;
  // the caller counts the touch itself (an access, or a prefetch).
  CacheAccessOutcome TouchLine(PhysAddr pa, bool is_write) {
    const uint32_t stamp = NextStamps(1);
    const uint32_t tag = Tag(pa);
    uint32_t* tags = SetWords(SetIndex(pa));
    uint32_t* stamps = tags + field_words_;
    uint32_t* dirty = stamps + field_words_;
    // The victim select is mask arithmetic: written as a ternary, GCC compiles it to a
    // branch on the stamps, which mispredicts whenever the LRU way varies between misses.
    size_t victim = 0;
    uint32_t oldest = kMaxStamp;  // stamps[victim] once way 0 is read (no stamp is larger)
    for (size_t w = 0; w < field_words_; w += kSetGroup) {
      if (tags[w] == tag) {
        stamps[w] = stamp;
        dirty[w] |= static_cast<uint32_t>(is_write);
        return CacheAccessOutcome{.hit = true, .evicted_dirty = false};
      }
      const size_t older = 0 - static_cast<size_t>(stamps[w] < oldest);
      victim ^= (victim ^ w) & older;
      oldest = std::min(stamps[w], oldest);
    }
    CacheAccessOutcome outcome{.hit = false, .evicted_dirty = false};
    if (oldest != 0) {
      ++stats_.evictions;
      if (dirty[victim] != 0) {
        ++stats_.dirty_writebacks;
        outcome.evicted_dirty = true;
      }
    }
    tags[victim] = tag;
    stamps[victim] = stamp;
    dirty[victim] = is_write;
    return outcome;
  }

  // Takes `n` consecutive ticks of the LRU clock and returns the first. Only the order of
  // the stamps inside one set is ever read, so when the clock would pass kMaxStamp every
  // set's stamps are first replaced by their ranks (RenumberStamps), which changes nothing.
  uint32_t NextStamps(uint32_t n) {
    if (tick_ > kMaxStamp - n) [[unlikely]] {
      RenumberStamps();
    }
    const uint32_t first = tick_ + 1;
    tick_ += n;
    return first;
  }
  void RenumberStamps();

  // `n` (> 0) accesses to the single line containing `pa`: only the first can miss; the
  // remaining n-1 hit the line it left most recently used in its set, so they reduce to
  // counter adds and 1 cycle each (its stamp already orders it last and its dirty bit
  // already carries `is_write`).
  Cycles AccessLineRun(PhysAddr pa, bool is_write, uint32_t n) {
    const Cycles first = Access(pa, is_write);
    stats_.accesses += n - 1;
    stats_.hits += n - 1;
    return first + Cycles(n - 1);
  }

  // `lines` lines from the line containing `pa` upwards, each accessed `repeat` (> 0) times
  // back to back, in one pass of the sweep kernel. Its cycles are computed once from the
  // counts, as hits + misses * fill + write-backs * write-back.
  Cycles SweepLines(PhysAddr pa, uint32_t lines, bool is_write, uint32_t repeat = 1) {
    return SweepSets<1>(pa, is_write, pa, is_write, lines, repeat);
  }

  // A sub-line-stride run over more than two lines, one group per line (cache.cc). When
  // the stride is a power of two dividing `pa`, each group ends at a line boundary, so its
  // length is a shift, and once at least kMinSweepLines whole lines remain they go to one
  // sweep with a per-line repeat count.
  Cycles RunGroups(PhysAddr pa, uint32_t stride, uint32_t count, bool is_write);

  // Below this many lines a run stays inline, one Access or AccessLineRun per line: a
  // PTEG probe reads at most two lines, and a sweep shorter than one four-set step of the
  // kernel runs none of its vector steps.
  static constexpr uint32_t kMinSweepLines = 4;

  // The sweep kernel: `kStreams` (1 or 2) interleaved line streams, one chunk of distinct
  // sets at a time (cache.cc). It has lane steps for 2 and 4 ways, the L1s of the 603 and
  // 604; other associativities, and pairs in different sets, go one line at a time.
  template <uint32_t kStreams>
  Cycles SweepSets(PhysAddr a, bool a_write, PhysAddr b, bool b_write, uint32_t lines,
                   uint32_t repeat);

  // Set `set`'s way-0 tag in rows_; way w's tag is kSetGroup * w words on, and its stamp
  // and dirty bit are field_words_ and 2 * field_words_ words on from its tag.
  uint32_t* SetWords(uint32_t set) {
    return &rows_[set / kSetGroup * 3 * field_words_ + set % kSetGroup];
  }
  const uint32_t* SetWords(uint32_t set) const {
    return &rows_[set / kSetGroup * 3 * field_words_ + set % kSetGroup];
  }

  // Line size and set count are powers of two (checked at construction), so the index and
  // tag divisions reduce to shifts — precomputed once, they keep integer division out of
  // the per-access path while producing bit-identical values.
  uint32_t SetIndex(PhysAddr pa) const { return (pa.value >> line_shift_) & set_mask_; }
  uint32_t Tag(PhysAddr pa) const { return pa.value >> tag_shift_; }

  std::string name_;
  CacheGeometry geometry_;
  MemoryTiming timing_;
  uint32_t line_shift_ = 0;  // log2(line_bytes)
  uint32_t set_mask_ = 0;    // NumSets() - 1
  uint32_t tag_shift_ = 0;   // log2(line_bytes * NumSets())
  // Line state in way-major rows, kept in groups of kSetGroup consecutive sets. A group
  // holds three fields of field_words_ words each: the tags (kNoTag when invalid), the LRU
  // stamps (0 when invalid) and the dirty bits (0 or 1). Within a field, way w of the
  // group's set i is word kSetGroup * w + i. So the group's four sets of one way are four
  // adjacent words (one lane vector of the sweep kernel), and one set's ways of one field
  // lie within 16 * associativity bytes, so a single access reads few host cache lines.
  static constexpr size_t kSetGroup = 4;
  std::vector<uint32_t> rows_;
  size_t field_words_ = 0;  // kSetGroup * associativity
  uint32_t tick_ = 0;       // LRU clock: the last stamp handed out
  CacheStats stats_;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_SIM_CACHE_H_
