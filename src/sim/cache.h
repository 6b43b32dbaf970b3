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

// Outcome of one line-level access, for callers that compute costs themselves (the machine
// uses this to layer an optional L2 between the L1s and memory).
struct CacheAccessOutcome {
  bool hit = false;
  bool evicted_dirty = false;  // a dirty victim line was displaced (write-back traffic)
};

// One cache (L1 instruction, L1 data, or a unified L2).
class Cache {
 public:
  Cache(std::string name, CacheGeometry geometry, MemoryTiming timing);

  // Performs one cached access to the line containing `pa`. Returns the cycles charged
  // assuming misses fill straight from memory (no L2).
  Cycles Access(PhysAddr pa, bool is_write);

  // Line-level access without timing: updates state, reports what happened. Defined inline:
  // this is the hottest function in the whole simulator (every charged memory reference
  // lands here), and the call would otherwise cross a translation-unit boundary.
  CacheAccessOutcome AccessLine(PhysAddr pa, bool is_write) {
    CacheAccessOutcome outcome;
    TouchLine(pa, is_write, &outcome);
    return outcome;
  }

  // `n` accesses to the single line containing `pa`, collapsed: bit-identical to calling
  // AccessLine `n` times with same-line addresses. Only the first access can miss (the
  // returned outcome); the remaining n-1 are hits on the line the first one left resident,
  // so they reduce to counter adds and an LRU refresh of that line (its dirty bit already
  // carries `is_write`). Serves the run charges the sweep kernels below do not take:
  // sub-line strides (PTEG scans, word-stride spans) and every run on a board with an L2.
  CacheAccessOutcome AccessLineRun(PhysAddr pa, bool is_write, uint32_t n) {
    CacheAccessOutcome first;
    Line* line = TouchLine(pa, is_write, &first);
    if (n > 1) {
      const uint64_t extra = n - 1;
      stats_.accesses += extra;
      stats_.hits += extra;
      tick_ += extra;
      line->last_used = tick_;
    }
    return first;
  }

  // Sweep kernels: runs of consecutive lines charged in one out-of-line pass, bit-identical
  // to one AccessLine per line (state, counters and LRU clock). They return the cycles of
  // the run assuming misses fill straight from memory (no L2), computed once from the
  // counts as hits + misses * fill + write-backs * write-back.
  //
  // SweepLines: `lines` accesses, one per line, from the line containing `pa` upwards.
  Cycles SweepLines(PhysAddr pa, uint32_t lines, bool is_write);
  // SweepLinePairs: for each i < `lines`, line i of `a` then line i of `b` (a copy's load
  // and store interleaved, as the two streams compete for the same sets).
  Cycles SweepLinePairs(PhysAddr a, bool a_write, PhysAddr b, bool b_write, uint32_t lines);

  // Performs one cache-inhibited access (the line is neither looked up nor allocated).
  // Inline: the uncached idle-task configurations issue one of these per zeroed word.
  Cycles AccessUncached(bool /*is_write*/) {
    ++stats_.uncached_accesses;
    return Cycles(timing_.single_beat_cycles);
  }

  // `n` cache-inhibited accesses, collapsed: every one costs the same single-beat latency
  // and touches no line state, so the batch is n counter bumps and one multiply.
  Cycles AccessUncachedRun(bool /*is_write*/, uint32_t n) {
    stats_.uncached_accesses += n;
    return Cycles(static_cast<uint64_t>(timing_.single_beat_cycles) * n);
  }

  // dcbt-style software prefetch: starts filling the line containing `pa` if absent. The
  // fill overlaps with subsequent execution, so only the issue cost is charged — the paper's
  // §10.2 "provide hints to the hardware about access patterns".
  Cycles Prefetch(PhysAddr pa);

  // Returns true if the line containing `pa` is currently resident.
  bool Contains(PhysAddr pa) const;

  // Invalidates every line without writing anything back (simulation-level reset).
  void InvalidateAll();

  // Number of currently valid lines (occupancy probe for pollution experiments).
  uint32_t ValidLineCount() const;

  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }
  const CacheGeometry& geometry() const { return geometry_; }
  const std::string& name() const { return name_; }

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    uint32_t tag = 0;
    uint64_t last_used = 0;
  };

  // One access to the line containing `pa` in a single pass over the set's ways: the pass
  // finds the hit, or else remembers the victim — the first invalid way, otherwise the
  // least recently used one (strict <, so the lowest way wins a tie). Both fall out of one
  // minimum over last_used: an invalid line's last_used is always 0 (lines start that way
  // and are only invalidated wholesale, by InvalidateAll), while a valid line's is at least
  // 1 because every access bumps the clock first. Reports the outcome and returns the line
  // the access left resident.
  Line* TouchLine(PhysAddr pa, bool is_write, CacheAccessOutcome* outcome) {
    ++stats_.accesses;
    ++tick_;

    const uint32_t tag = Tag(pa);
    Line* ways = &lines_[static_cast<size_t>(SetIndex(pa)) * geometry_.associativity];
    Line* victim = &ways[0];
    for (uint32_t w = 0; w < geometry_.associativity; ++w) {
      Line& line = ways[w];
      if (line.valid && line.tag == tag) {
        ++stats_.hits;
        line.last_used = tick_;
        line.dirty = line.dirty || is_write;
        *outcome = CacheAccessOutcome{.hit = true, .evicted_dirty = false};
        return &line;
      }
      victim = line.last_used < victim->last_used ? &line : victim;
    }

    ++stats_.misses;
    *outcome = CacheAccessOutcome{.hit = false, .evicted_dirty = false};
    if (victim->valid) {
      ++stats_.evictions;
      if (victim->dirty) {
        ++stats_.dirty_writebacks;
        outcome->evicted_dirty = true;
      }
    }
    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = tag;
    victim->last_used = tick_;
    return victim;
  }

  // The sweep kernels' shared body: `kStreams` (1 or 2) interleaved line streams, with the
  // way select specialised on associativity `kWays` (0 = any associativity); SweepStreams
  // dispatches on the geometry.
  template <uint32_t kStreams>
  Cycles SweepStreams(PhysAddr a, bool a_write, PhysAddr b, bool b_write, uint32_t lines);
  template <uint32_t kWays, uint32_t kStreams>
  Cycles Sweep(PhysAddr a, bool a_write, PhysAddr b, bool b_write, uint32_t lines);

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
  std::vector<Line> lines_;  // sets * ways, row-major by set
  uint64_t tick_ = 0;        // LRU clock
  CacheStats stats_;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_SIM_CACHE_H_
