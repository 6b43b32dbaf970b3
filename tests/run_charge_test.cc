// The run-charging contract: every run primitive must be bit-identical to the scalar loop it
// stands for. Machine::TouchDataRun / TouchInstructionRun (at every kind of stride
// Cache::Run splits: 0, sub-line, the line, above it) / TouchDataPairRun against TouchData /
// TouchInstruction loops (cycles, every cache's counters, attribution cells, and the LRU
// state a follow-up probe sequence reveals), including the line sweeps over frames left
// partly resident and dirty; the HTAB's run-charged PTEG scans against the per-slot
// (address, is_write) sequence of a one-Charge-per-probe scan; and page zeroing against a
// per-line reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/kernel/mem_manager.h"
#include "src/mmu/hash_table.h"
#include "src/mmu/mmu.h"
#include "src/sim/machine.h"
#include "src/sim/rng.h"
#include "src/verify/fuzz/reference_cache.h"

namespace ppcmm {
namespace {

struct ConfigCase {
  std::string name;
  MachineConfig config;
};

// 603 (2-way L1s) and 604 (4-way) take the set-parallel sweep kernel; 3way (12 KB, 128
// sets) has no kernel of its own, so its sweeps go one line at a time.
std::vector<ConfigCase> Configs() {
  const auto small = [](MachineConfig mc) {
    mc.ram_bytes = 4ull * 1024 * 1024;
    return mc;
  };
  MachineConfig three_way = MachineConfig::Ppc604(185);
  three_way.icache = CacheGeometry{.size_bytes = 12 * 1024, .line_bytes = 32, .associativity = 3};
  three_way.dcache = three_way.icache;
  return {{"603", small(MachineConfig::Ppc603(80))},
          {"604", small(MachineConfig::Ppc604(185))},
          {"3way", small(three_way)}};
}

void ExpectStatsEqual(const CacheStats& a, const CacheStats& b, const char* which) {
  SCOPED_TRACE(which);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.dirty_writebacks, b.dirty_writebacks);
  EXPECT_EQ(a.uncached_accesses, b.uncached_accesses);
  EXPECT_EQ(a.prefetches, b.prefetches);
}

// Clock, both caches' counters and every attribution cell of two machines.
void ExpectMachinesEqual(Machine& a, Machine& b) {
  EXPECT_EQ(a.Now().value, b.Now().value);
  ExpectStatsEqual(a.dcache().stats(), b.dcache().stats(), "dcache");
  ExpectStatsEqual(a.icache().stats(), b.icache().stats(), "icache");
  const std::vector<CycleLedger::Cell> cells_a = a.attr().Cells();
  const std::vector<CycleLedger::Cell> cells_b = b.attr().Cells();
  ASSERT_EQ(cells_a.size(), cells_b.size());
  for (size_t i = 0; i < cells_a.size(); ++i) {
    EXPECT_EQ(cells_a[i].path, cells_b[i].path);
    EXPECT_EQ(cells_a[i].task, cells_b[i].task);
    EXPECT_EQ(cells_a[i].cycles, cells_b[i].cycles);
  }
  EXPECT_EQ(a.attr().TotalAttributed(), b.attr().TotalAttributed());
}

// Mixed pseudo-random instruction and data traffic over 64 KB: fills every set, dirties
// lines, and evicts. Run after a run-vs-loop pair, identical hits, misses and evictions on
// both machines show the run left the LRU state exactly as the loop did.
void Traffic(Machine& m, uint64_t seed, uint32_t n) {
  Rng rng(seed);
  for (uint32_t i = 0; i < n; ++i) {
    const PhysAddr pa(static_cast<uint32_t>(rng.NextBelow(64 * 1024)));
    if (rng.NextBelow(4) == 0) {
      m.TouchInstruction(pa);
    } else {
      m.TouchData(pa, rng.NextBelow(2) == 0);
    }
  }
}

struct MachinePair {
  explicit MachinePair(const MachineConfig& config) : run(config), loop(config) {
    run.attr().SetEnabled(true);
    loop.attr().SetEnabled(true);
    Traffic(run, 1, 4000);
    Traffic(loop, 1, 4000);
  }
  Machine run;
  Machine loop;
};

// Every config has 32-byte lines: stride 0 repeats one address, 32 is the line, 48 and 64
// (two lines) are above it, and 4096 is one page.
constexpr uint32_t kStrides[] = {0, 1, 3, 4, 8, 12, 24, 32, 48, 64, 4096};
constexpr uint32_t kStarts[] = {0x2000, 0x2004, 0x2007, 0x201C, 0x2FF0};

// Counts for one stride: a single access, a short run, and one spanning a page boundary
// (or, at stride 0, a long repeat).
std::vector<uint32_t> Counts(uint32_t stride) {
  if (stride == 0) {
    return {1, 2, 4, 37};
  }
  return {1, 5, std::max(6000 / stride, 2u)};
}

TEST(RunChargeTest, TouchDataRunMatchesTouchDataLoop) {
  for (const ConfigCase& c : Configs()) {
    MachinePair m(c.config);
    uint64_t seed = 2;
    for (const uint32_t stride : kStrides) {
      for (const uint32_t start : kStarts) {
        for (const uint32_t count : Counts(stride)) {
          for (const bool cached : {true, false}) {
            for (const bool is_write : {false, true}) {
              SCOPED_TRACE(c.name + " stride=" + std::to_string(stride) + " start=" +
                           std::to_string(start) + " count=" + std::to_string(count) +
                           (cached ? " cached" : " uncached") + (is_write ? " store" : " load"));
              {
                CycleScope scope(m.run, AttrCause::kIdleZero);
                m.run.TouchDataRun(PhysAddr(start), stride, count, is_write, cached);
              }
              {
                CycleScope scope(m.loop, AttrCause::kIdleZero);
                for (uint32_t i = 0; i < count; ++i) {
                  m.loop.TouchData(PhysAddr(start + i * stride), is_write, cached);
                }
              }
              ExpectMachinesEqual(m.run, m.loop);
              Traffic(m.run, seed, 300);
              Traffic(m.loop, seed, 300);
              ++seed;
              ExpectMachinesEqual(m.run, m.loop);
              if (testing::Test::HasFailure()) {
                return;
              }
            }
          }
        }
      }
    }
  }
}

TEST(RunChargeTest, TouchInstructionRunMatchesTouchInstructionLoop) {
  for (const ConfigCase& c : Configs()) {
    MachinePair m(c.config);
    uint64_t seed = 1000;
    for (const uint32_t stride : kStrides) {
      for (const uint32_t start : kStarts) {
        for (const uint32_t count : Counts(stride)) {
          for (const bool cached : {true, false}) {
            SCOPED_TRACE(c.name + " stride=" + std::to_string(stride) + " start=" +
                         std::to_string(start) + " count=" + std::to_string(count) +
                         (cached ? " cached" : " uncached"));
            m.run.TouchInstructionRun(PhysAddr(start), stride, count, cached);
            for (uint32_t i = 0; i < count; ++i) {
              m.loop.TouchInstruction(PhysAddr(start + i * stride), cached);
            }
            ExpectMachinesEqual(m.run, m.loop);
            Traffic(m.run, seed, 300);
            Traffic(m.loop, seed, 300);
            ++seed;
            ExpectMachinesEqual(m.run, m.loop);
            if (testing::Test::HasFailure()) {
              return;
            }
          }
        }
      }
    }
  }
}

// The same-address repeat (the context switch's register saves, the idle chunk's refetches)
// is a stride-0 run, charged here outside any attribution scope.
TEST(RunChargeTest, TouchDataRepeatMatchesTouchDataLoop) {
  for (const ConfigCase& c : Configs()) {
    MachinePair m(c.config);
    uint64_t seed = 3000;
    for (const uint32_t start : kStarts) {
      for (const uint32_t count : {1u, 2u, 4u, 37u}) {
        for (const bool cached : {true, false}) {
          for (const bool is_write : {false, true}) {
            SCOPED_TRACE(c.name + " start=" + std::to_string(start) + " count=" +
                         std::to_string(count) + (cached ? " cached" : " uncached") +
                         (is_write ? " store" : " load"));
            m.run.TouchDataRun(PhysAddr(start), /*stride=*/0, count, is_write, cached);
            for (uint32_t i = 0; i < count; ++i) {
              m.loop.TouchData(PhysAddr(start), is_write, cached);
            }
            ExpectMachinesEqual(m.run, m.loop);
            Traffic(m.run, seed, 300);
            Traffic(m.loop, seed, 300);
            ++seed;
            ExpectMachinesEqual(m.run, m.loop);
            if (testing::Test::HasFailure()) {
              return;
            }
          }
        }
      }
    }
  }
}

// The PTEG probe shapes: stride-8 runs of 2 to 8 reads from each slot of a 64-byte PTEG,
// so a run lies within one line, crosses into a second (Cache::Run's inline two-line path)
// or, from the last slots, reaches a third (the group loop).
TEST(RunChargeTest, PtegShapedRunsMatchTouchDataLoop) {
  for (const ConfigCase& c : Configs()) {
    MachinePair m(c.config);
    uint64_t seed = 4000;
    for (uint32_t slot = 0; slot < 8; ++slot) {
      for (uint32_t count = 2; count <= 8; ++count) {
        for (const bool is_write : {false, true}) {
          const uint32_t start = 0x10000 + 64 * static_cast<uint32_t>(seed % 64) + 8 * slot;
          SCOPED_TRACE(c.name + " slot=" + std::to_string(slot) + " count=" +
                       std::to_string(count) + (is_write ? " store" : " load"));
          m.run.TouchDataRun(PhysAddr(start), /*stride=*/8, count, is_write);
          for (uint32_t i = 0; i < count; ++i) {
            m.loop.TouchData(PhysAddr(start + 8 * i), is_write);
          }
          ExpectMachinesEqual(m.run, m.loop);
          Traffic(m.run, seed, 300);
          Traffic(m.loop, seed, 300);
          ++seed;
          ExpectMachinesEqual(m.run, m.loop);
          if (testing::Test::HasFailure()) {
            return;
          }
        }
      }
    }
  }
}

// ---- line sweeps ----

// Leaves the 8 KB from `base` partly resident and partly dirty, in whichever ways the
// accesses land, identically on both machines.
void SeedPartlyResident(MachinePair& m, uint32_t base, uint64_t seed) {
  for (Machine* machine : {&m.run, &m.loop}) {
    Rng rng(seed);
    for (uint32_t i = 0; i < 160; ++i) {
      const PhysAddr pa(base + static_cast<uint32_t>(rng.NextBelow(8 * 1024)));
      if (rng.NextBelow(5) == 0) {
        machine->TouchInstruction(pa);
      } else {
        machine->TouchData(pa, rng.NextBelow(2) == 0);
      }
    }
  }
}

// Unaligned starts, starts just below a set-index wrap (and with it a tag step), and counts
// from one line past the wrap to more lines than either cache holds, so a sweep also evicts
// lines it brought in itself.
constexpr uint32_t kSweepStarts[] = {0x8000, 0x8004, 0x8F9C, 0x8FE0, 0x9FFF};
constexpr uint32_t kSweepCounts[] = {1, 4, 127, 128, 129, 300, 513};

TEST(RunChargeTest, LineSweepsMatchPerLineLoops) {
  for (const ConfigCase& c : Configs()) {
    MachinePair m(c.config);
    const uint32_t line = c.config.dcache.line_bytes;
    uint64_t seed = 3000;
    for (const uint32_t start : kSweepStarts) {
      for (const uint32_t count : kSweepCounts) {
        for (const int kind : {0, 1, 2}) {  // load, store, instruction fetch
          SCOPED_TRACE(c.name + " start=" + std::to_string(start) + " count=" +
                       std::to_string(count) + " kind=" + std::to_string(kind));
          SeedPartlyResident(m, start & ~0xFFFu, seed);
          {
            CycleScope scope(m.run, AttrCause::kIdleZero);
            if (kind == 2) {
              m.run.TouchInstructionRun(PhysAddr(start), line, count);
            } else {
              m.run.TouchDataRun(PhysAddr(start), line, count, kind == 1);
            }
          }
          {
            CycleScope scope(m.loop, AttrCause::kIdleZero);
            for (uint32_t i = 0; i < count; ++i) {
              if (kind == 2) {
                m.loop.TouchInstruction(PhysAddr(start + i * line));
              } else {
                m.loop.TouchData(PhysAddr(start + i * line), kind == 1);
              }
            }
          }
          ExpectMachinesEqual(m.run, m.loop);
          Traffic(m.run, seed, 300);
          Traffic(m.loop, seed, 300);
          ++seed;
          ExpectMachinesEqual(m.run, m.loop);
          if (testing::Test::HasFailure()) {
            return;
          }
        }
      }
    }
  }
}

// A copy's interleaved streams: user lines at `a` (possibly uncached), kernel lines at `b`.
// The pairs share the frame offset (both streams in the same sets), are offset by a few
// lines, or have a kernel buffer that is not line-aligned.
TEST(RunChargeTest, PairSweepsMatchAlternatingTouchData) {
  struct PairCase {
    uint32_t a;
    uint32_t b;
  };
  constexpr PairCase kPairs[] = {
      {0x20000, 0x31000}, {0x20040, 0x31040}, {0x20000, 0x310A4}, {0x207E0, 0x3201C}};
  for (const ConfigCase& c : Configs()) {
    MachinePair m(c.config);
    const uint32_t line = c.config.dcache.line_bytes;
    uint64_t seed = 5000;
    for (const PairCase& pair : kPairs) {
      for (const uint32_t count : {1u, 7u, 64u, 128u, 300u}) {
        for (const bool a_cached : {true, false}) {
          for (const bool to_user : {false, true}) {
            SCOPED_TRACE(c.name + " a=" + std::to_string(pair.a) + " b=" +
                         std::to_string(pair.b) + " count=" + std::to_string(count) +
                         (a_cached ? " cached" : " uncached") +
                         (to_user ? " to_user" : " from_user"));
            SeedPartlyResident(m, pair.a & ~0xFFFu, seed);
            SeedPartlyResident(m, pair.b & ~0xFFFu, seed + 1);
            {
              CycleScope scope(m.run, AttrCause::kCowCopy);
              m.run.TouchDataPairRun(PhysAddr(pair.a), to_user, a_cached, PhysAddr(pair.b),
                                     !to_user, count);
            }
            {
              CycleScope scope(m.loop, AttrCause::kCowCopy);
              for (uint32_t i = 0; i < count; ++i) {
                m.loop.TouchData(PhysAddr(pair.a + i * line), to_user, a_cached);
                m.loop.TouchData(PhysAddr(pair.b + i * line), !to_user);
              }
            }
            ExpectMachinesEqual(m.run, m.loop);
            Traffic(m.run, seed, 300);
            Traffic(m.loop, seed, 300);
            seed += 2;
            ExpectMachinesEqual(m.run, m.loop);
            if (testing::Test::HasFailure()) {
              return;
            }
          }
        }
      }
    }
  }
}

// ---- runs against the reference cache ----

// Reference-side bookkeeping: the counters and cycles an L1 must report after the same
// accesses, one reference access per line group (its repeats hit).
struct ReferenceDcache {
  explicit ReferenceDcache(const MachineConfig& config)
      : cache(config.dcache), timing(config.memory) {}

  void Access(PhysAddr pa, bool is_write, uint64_t repeat = 1) {
    const ReferenceCache::Outcome outcome = cache.Access(pa, is_write);
    stats.accesses += repeat;
    stats.hits += repeat - 1 + (outcome.hit ? 1 : 0);
    stats.misses += outcome.hit ? 0 : 1;
    stats.dirty_writebacks += outcome.evicted_dirty ? 1 : 0;
    cycles += repeat - 1 + (outcome.hit ? 1
                                        : timing.line_fill_cycles +
                                              (outcome.evicted_dirty ? timing.writeback_cycles
                                                                     : 0));
  }

  ReferenceCache cache;
  MemoryTiming timing;
  CacheStats stats;
  uint64_t cycles = 0;
};

void ExpectCacheMatchesReference(Cache& cache, const ReferenceDcache& reference,
                                 const std::vector<PhysAddr>& probes) {
  EXPECT_EQ(cache.stats().accesses, reference.stats.accesses);
  EXPECT_EQ(cache.stats().hits, reference.stats.hits);
  EXPECT_EQ(cache.stats().misses, reference.stats.misses);
  EXPECT_EQ(cache.stats().dirty_writebacks, reference.stats.dirty_writebacks);
  for (const PhysAddr pa : probes) {
    ASSERT_EQ(cache.Contains(pa), reference.cache.Contains(pa)) << "pa=0x" << std::hex
                                                                << pa.value;
  }
}

// Sub-line-stride runs long enough for their whole-line groups to go to the sweep kernel
// with a per-line repeat count, starting and ending mid-line, between single accesses that
// leave lines partly resident and dirty. Strides are powers of two; three starts in four
// are stride-aligned (the kernel takes those runs' whole lines), the rest are not (they
// stay one line group at a time).
TEST(RunChargeTest, SubLineRunsMatchReferenceCache) {
  for (const ConfigCase& c : Configs()) {
    Machine m(c.config);
    ReferenceDcache reference(c.config);
    Rng rng(8080);
    const uint32_t line = c.config.dcache.line_bytes;
    for (int i = 0; i < 400; ++i) {
      const uint32_t stride = 1u << rng.NextBelow(5);  // 1 .. 16 bytes
      uint32_t start = static_cast<uint32_t>(rng.NextBelow(64 * 1024));
      if (rng.Chance(3, 4)) {
        start &= ~(stride - 1);
      }
      const auto count = static_cast<uint32_t>(1 + rng.NextBelow(24 * line / stride));
      const bool is_write = rng.Chance(1, 2);
      SCOPED_TRACE(c.name + " run " + std::to_string(i) + " start=" + std::to_string(start) +
                   " stride=" + std::to_string(stride) + " count=" + std::to_string(count));
      const uint64_t now = m.Now().value;
      const uint64_t cycles_before = reference.cycles;
      m.TouchDataRun(PhysAddr(start), stride, count, is_write);
      std::vector<PhysAddr> probes;
      for (uint32_t k = 0; k < count;) {
        const uint32_t pa = start + k * stride;
        const uint32_t group = std::min(count - k, (line - pa % line + stride - 1) / stride);
        reference.Access(PhysAddr(pa), is_write, group);
        probes.push_back(PhysAddr(pa));
        k += group;
      }
      ASSERT_EQ(m.Now().value - now, reference.cycles - cycles_before);
      for (int t = 0; t < 6; ++t) {
        const PhysAddr pa(static_cast<uint32_t>(rng.NextBelow(64 * 1024)));
        const bool w = rng.Chance(1, 2);
        m.TouchData(pa, w);
        reference.Access(pa, w);
        probes.push_back(pa);
      }
      ExpectCacheMatchesReference(m.dcache(), reference, probes);
      if (testing::Test::HasFailure()) {
        return;
      }
    }
  }
}

// The idle fast-forward refetches one line up to UINT32_MAX times in one stride-0
// TouchInstructionRun, and the context switch saves several registers into one line with a
// stride-0 TouchDataRun. Counts that large next to single accesses, with the cache's LRU
// clock moved to just below the point where its stamps are renumbered, must still match one
// reference access per run, in outcome, counters, clock and residency.
void ExpectStrideZeroRunsNearUint32MaxMatchReference(bool ifetch) {
  for (const ConfigCase& c : Configs()) {
    Machine m(c.config);
    Cache& cache = ifetch ? m.icache() : m.dcache();
    MachineConfig reference_config = c.config;
    reference_config.dcache = cache.geometry();
    ReferenceDcache reference(reference_config);
    Rng rng(ifetch ? 4242 : 4343);
    for (int round = 0; round < 6; ++round) {
      cache.AdvanceLruClock(Cache::kMaxStamp - static_cast<uint32_t>(rng.NextBelow(40)));
      for (int op = 0; op < 100; ++op) {
        SCOPED_TRACE(c.name + " round " + std::to_string(round) + " op " + std::to_string(op));
        const PhysAddr pa(static_cast<uint32_t>(rng.NextBelow(64 * 1024)));
        const bool is_write = !ifetch && rng.Chance(1, 2);
        const uint64_t now = m.Now().value;
        const uint64_t cycles_before = reference.cycles;
        if (rng.Chance(1, 3)) {
          const uint32_t n = UINT32_MAX - static_cast<uint32_t>(rng.NextBelow(4));
          if (ifetch) {
            m.TouchInstructionRun(pa, /*stride=*/0, n);
          } else {
            m.TouchDataRun(pa, /*stride=*/0, n, is_write);
          }
          reference.Access(pa, is_write, n);
        } else {
          if (ifetch) {
            m.TouchInstruction(pa);
          } else {
            m.TouchData(pa, is_write);
          }
          reference.Access(pa, is_write);
        }
        ASSERT_EQ(m.Now().value - now, reference.cycles - cycles_before);
        ExpectCacheMatchesReference(
            cache, reference, {pa, PhysAddr(static_cast<uint32_t>(rng.NextBelow(64 * 1024)))});
        if (testing::Test::HasFailure()) {
          return;
        }
      }
    }
  }
}

TEST(RunChargeTest, InstructionRepeatsNearUint32MaxCrossTheStampRenumbering) {
  ExpectStrideZeroRunsNearUint32MaxMatchReference(/*ifetch=*/true);
}

TEST(RunChargeTest, DataRepeatsNearUint32MaxCrossTheStampRenumbering) {
  ExpectStrideZeroRunsNearUint32MaxMatchReference(/*ifetch=*/false);
}

// ---- PTEG scans ----

using ChargeLog = std::vector<std::pair<uint32_t, bool>>;  // (address, is_write)

// Records every reference in order: each run is counted, then expanded through the default
// ChargeRun loop into per-reference Charge calls.
class RecordingCharger : public MemCharger {
 public:
  void Charge(PhysAddr pa, bool is_write) override { log.emplace_back(pa.value, is_write); }
  void ChargeRun(PhysAddr pa, uint32_t stride, uint32_t count, bool is_write) override {
    ++runs;
    MemCharger::ChargeRun(pa, stride, count, is_write);
  }
  ChargeLog log;
  uint32_t runs = 0;
};

class EveryThirdDeadOracle : public VsidOracle {
 public:
  bool IsLive(Vsid v) const override { return v.value % 3 != 0; }  // every third VSID is dead
};

HashedPte MakePte(uint32_t vsid, uint32_t page_index) {
  return HashedPte{.valid = true,
                   .vsid = Vsid(vsid),
                   .page_index = page_index,
                   .rpn = 0x200,
                   .cache_inhibited = false,
                   .writable = true,
                   .referenced = false,
                   .changed = false};
}

constexpr uint32_t kScanPtegs = 64;
constexpr PhysAddr kHtabBase(0x10000);

// A table with a mix of live PTEs, zombies and free slots. FillWithZombies adds the corner
// cases the reclaim runs must split correctly.
void Populate(HashTable& htab, uint64_t seed) {
  const EveryThirdDeadOracle oracle;
  NullMemCharger null;
  Rng rng(seed);
  for (uint32_t i = 0; i < kScanPtegs * 6; ++i) {
    htab.Insert(MakePte(static_cast<uint32_t>(rng.NextInRange(1, 40)),
                        static_cast<uint32_t>(rng.NextBelow(0x10000))),
                oracle, null);
  }
  // Invalidate a few PTEGs to leave holes.
  for (uint32_t i = 0; i < 40; ++i) {
    htab.InvalidatePteg(static_cast<uint32_t>(rng.NextBelow(kScanPtegs)), nullptr);
  }
}

// The per-slot sequence a one-Charge-per-probe reclaim scan issues, computed from the
// table state before the call.
ChargeLog ScalarReclaimLog(const HashTable& htab, uint32_t cursor, uint32_t max_ptegs,
                           const VsidOracle& oracle) {
  ChargeLog log;
  const uint32_t limit = std::min(max_ptegs, htab.num_ptegs());
  for (uint32_t i = 0; i < limit; ++i) {
    const uint32_t g = (cursor + i) % htab.num_ptegs();
    for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
      log.emplace_back(htab.SlotAddr(g, s).value, false);
      const HashedPte& pte = htab.At(g, s);
      if (pte.valid && !oracle.IsLive(pte.vsid)) {
        log.emplace_back(htab.SlotAddr(g, s).value, true);
      }
    }
  }
  return log;
}

// Fills PTEG `g` entirely with zombies (VSID 3 is dead).
void FillWithZombies(HashTable& htab, uint32_t g) {
  const EveryThirdDeadOracle oracle;
  NullMemCharger null;
  htab.InvalidatePteg(g, nullptr);
  // Page indices whose primary hash with VSID 3 lands on `g`.
  for (uint32_t page = 0, placed = 0; placed < kPtesPerPteg; ++page) {
    const HashedPte pte = MakePte(3, page);
    if (htab.PrimaryPteg(pte.virt_page()) == g) {
      htab.Insert(pte, oracle, null);
      ++placed;
    }
  }
}

TEST(RunChargeTest, ReclaimZombiesMatchesPerSlotSequence) {
  HashTable htab(kScanPtegs, kHtabBase);
  Populate(htab, 7);
  // An all-zombie PTEG, and a zombie in the last slot before the cursor wraps.
  FillWithZombies(htab, 5);
  FillWithZombies(htab, kScanPtegs - 1);
  const EveryThirdDeadOracle oracle;

  uint32_t cursor = 0;
  uint32_t round = 0;
  // Chunks wrap mid-scan and exactly at their end, exceed the table (max_ptegs >
  // num_ptegs), and scan nothing.
  for (const uint32_t chunk : {10u, 30u, 37u, 100u, 0u, 63u, 1u, 64u, 3u, 48u, 70u}) {
    SCOPED_TRACE("round " + std::to_string(round++) + " chunk " + std::to_string(chunk));
    if (round % 3 == 0) {
      Populate(htab, round);  // re-seed zombies so later rounds still reclaim something
      FillWithZombies(htab, kScanPtegs - 1);
    }
    const ChargeLog expected = ScalarReclaimLog(htab, cursor, chunk, oracle);
    uint32_t expected_reclaimed = 0;
    for (const auto& [addr, is_write] : expected) {
      expected_reclaimed += is_write ? 1 : 0;
    }
    RecordingCharger charger;
    EXPECT_EQ(htab.ReclaimZombies(chunk, oracle, charger), expected_reclaimed);
    EXPECT_EQ(charger.log, expected);
    // Runs are maximal: one per stretch of reads, split only by writes and by the wrap.
    const uint32_t limit = std::min(chunk, kScanPtegs);
    const uint32_t wraps = (cursor + limit) / kScanPtegs;
    EXPECT_LE(charger.runs, expected_reclaimed + wraps + 1);
    cursor = (cursor + limit) % kScanPtegs;
    for (const auto& [addr, is_write] : expected) {
      const uint32_t slot = (addr - kHtabBase.value) / kPteBytes;
      if (is_write) {
        EXPECT_FALSE(htab.At(slot / kPtesPerPteg, slot % kPtesPerPteg).valid) << addr;
      }
    }
  }
}

// The per-slot sequence of a PTEG search: one read per slot up to the first slot that
// satisfies `stop`, primary then secondary; plus the write of the slot found, if any.
template <typename Stop>
ChargeLog ScalarSearchLog(const HashTable& htab, VirtPage vp, Stop stop, bool write_found) {
  ChargeLog log;
  for (const uint32_t g : {htab.PrimaryPteg(vp), htab.SecondaryPteg(vp)}) {
    for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
      log.emplace_back(htab.SlotAddr(g, s).value, false);
      if (stop(htab.At(g, s))) {
        if (write_found) {
          log.emplace_back(htab.SlotAddr(g, s).value, true);
        }
        return log;
      }
    }
  }
  return log;
}

TEST(RunChargeTest, PtegSearchesMatchPerSlotSequence) {
  HashTable htab(kScanPtegs, kHtabBase);
  Populate(htab, 11);
  const EveryThirdDeadOracle oracle;
  Rng rng(12);
  for (uint32_t i = 0; i < 400; ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    // Half the probes name a resident PTE (hits at every depth), half a random page.
    VirtPage vp{.vsid = Vsid(static_cast<uint32_t>(rng.NextInRange(1, 40))),
                .page_index = static_cast<uint32_t>(rng.NextBelow(0x10000))};
    if (i % 2 == 0) {
      const HashedPte& pte = htab.At(static_cast<uint32_t>(rng.NextBelow(kScanPtegs)),
                                     static_cast<uint32_t>(rng.NextBelow(kPtesPerPteg)));
      if (pte.valid) {
        vp = pte.virt_page();
      }
    }
    const auto matches = [vp](const HashedPte& pte) { return pte.Matches(vp); };
    RecordingCharger charger;
    switch (i % 4) {
      case 0: {
        const ChargeLog expected = ScalarSearchLog(htab, vp, matches, false);
        const HtabSearchResult result = htab.Search(vp, charger);
        EXPECT_EQ(charger.log, expected);
        EXPECT_EQ(result.memory_refs, expected.size());
        break;
      }
      case 1: {
        const ChargeLog expected = ScalarSearchLog(htab, vp, matches, true);
        htab.MarkChanged(vp, charger);
        EXPECT_EQ(charger.log, expected);
        break;
      }
      case 2: {
        const ChargeLog expected = ScalarSearchLog(htab, vp, matches, true);
        const HtabSearchResult cleared = htab.InvalidatePage(vp, charger);
        EXPECT_EQ(charger.log, expected);
        EXPECT_EQ(cleared.memory_refs, charger.log.size());
        break;
      }
      case 3: {
        const HashedPte pte = MakePte(vp.vsid.value, vp.page_index);
        const auto free_slot = [](const HashedPte& slot) { return !slot.valid; };
        ChargeLog expected = ScalarSearchLog(htab, pte.virt_page(), free_slot, true);
        htab.Insert(pte, oracle, charger);
        if (expected.size() == 2 * kPtesPerPteg) {
          // Both PTEGs full: the round-robin replacement writes one of the 16 candidates.
          ASSERT_EQ(charger.log.size(), expected.size() + 1);
          EXPECT_TRUE(charger.log.back().second);
          charger.log.pop_back();
        }
        EXPECT_EQ(charger.log, expected);
        break;
      }
    }
  }
}

TEST(RunChargeTest, InvalidateMatchingMatchesPerSlotSequence) {
  HashTable htab(kScanPtegs, kHtabBase);
  Populate(htab, 21);
  FillWithZombies(htab, kScanPtegs - 1);
  const auto pred = [](const HashedPte& pte) { return pte.vsid.value % 5 == 0; };
  ChargeLog expected;
  for (uint32_t g = 0; g < kScanPtegs; ++g) {
    for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
      expected.emplace_back(htab.SlotAddr(g, s).value, false);
      if (htab.At(g, s).valid && pred(htab.At(g, s))) {
        expected.emplace_back(htab.SlotAddr(g, s).value, true);
      }
    }
  }
  RecordingCharger charger;
  htab.InvalidateMatching(pred, &charger);
  EXPECT_EQ(charger.log, expected);
  EXPECT_EQ(htab.InvalidateMatching(pred, nullptr), 0u);
}

// A data charger that knows only the scalar Charge: the cache-level reference for
// DataMemCharger's forwarding of runs to Machine::TouchDataRun.
class ScalarDataCharger : public MemCharger {
 public:
  ScalarDataCharger(Machine& machine, bool cached) : machine_(machine), cached_(cached) {}
  void Charge(PhysAddr pa, bool is_write) override { machine_.TouchData(pa, is_write, cached_); }

 private:
  Machine& machine_;
  bool cached_;
};

TEST(RunChargeTest, HtabScansThroughTheCacheMatchScalarCharging) {
  // A full-size HTAB spans 32 pages, so reclaim runs cross page and PTEG boundaries.
  constexpr uint32_t kPtegs = 2048;
  for (const ConfigCase& c : Configs()) {
    for (const bool cached : {true, false}) {
      SCOPED_TRACE(c.name + (cached ? " cached" : " uncached"));
      MachinePair m(c.config);
      HashTable run_htab(kPtegs, PhysAddr(0x100000));
      HashTable loop_htab(kPtegs, PhysAddr(0x100000));
      DataMemCharger run_charger(m.run, cached);
      ScalarDataCharger loop_charger(m.loop, cached);
      const EveryThirdDeadOracle oracle;
      Rng rng(5);
      for (uint32_t i = 0; i < 3000; ++i) {
        const HashedPte pte = MakePte(static_cast<uint32_t>(rng.NextInRange(1, 60)),
                                      static_cast<uint32_t>(rng.NextBelow(0x40000)));
        switch (rng.NextBelow(6)) {
          case 0:
            run_htab.Search(pte.virt_page(), run_charger);
            loop_htab.Search(pte.virt_page(), loop_charger);
            break;
          case 1:
            run_htab.InvalidatePage(pte.virt_page(), run_charger);
            loop_htab.InvalidatePage(pte.virt_page(), loop_charger);
            break;
          case 2: {
            const uint32_t chunk = static_cast<uint32_t>(rng.NextBelow(700));
            CycleScope run_scope(m.run, AttrCause::kIdleReclaim);
            CycleScope loop_scope(m.loop, AttrCause::kIdleReclaim);
            EXPECT_EQ(run_htab.ReclaimZombies(chunk, oracle, run_charger),
                      loop_htab.ReclaimZombies(chunk, oracle, loop_charger));
            break;
          }
          default:
            run_htab.Insert(pte, oracle, run_charger);
            loop_htab.Insert(pte, oracle, loop_charger);
            break;
        }
      }
      ExpectMachinesEqual(m.run, m.loop);
      Traffic(m.run, 77, 2000);
      Traffic(m.loop, 77, 2000);
      ExpectMachinesEqual(m.run, m.loop);
    }
  }
}

// ---- page zeroing ----

TEST(RunChargeTest, IdleZeroMatchesPerLineReference) {
  for (const ConfigCase& c : Configs()) {
    for (const IdleZeroPolicy policy :
         {IdleZeroPolicy::kCached, IdleZeroPolicy::kUncachedWithList}) {
      const bool cached = policy == IdleZeroPolicy::kCached;
      SCOPED_TRACE(c.name + (cached ? " cached" : " uncached"));
      MachinePair m(c.config);
      constexpr uint32_t kFirstFrame = 16;
      constexpr uint32_t kFrames = 64;
      PageAllocator run_alloc(kFirstFrame, kFrames);
      PageAllocator loop_alloc(kFirstFrame, kFrames);
      // Dirty every frame the zeroing may take, on both sides.
      m.run.memory().Fill(PhysAddr::FromFrame(kFirstFrame), 0xA5, kFrames * kPageSize);
      m.loop.memory().Fill(PhysAddr::FromFrame(kFirstFrame), 0xA5, kFrames * kPageSize);
      OptimizationConfig config;
      config.idle_zero = policy;
      MemManager mem(m.run, run_alloc, config);
      const uint32_t line = c.config.dcache.line_bytes;
      for (uint32_t page = 0; page < 24; ++page) {
        {
          CycleScope scope(m.run, AttrCause::kIdleZero);
          ASSERT_TRUE(mem.IdleZeroOnePage());
        }
        const std::optional<uint32_t> frame = loop_alloc.Alloc();
        ASSERT_TRUE(frame.has_value());
        {
          CycleScope scope(m.loop, AttrCause::kIdleZero);
          for (uint32_t offset = 0; offset < kPageSize; offset += line) {
            m.loop.TouchData(PhysAddr::FromFrame(*frame, offset), /*is_write=*/true, cached);
            m.loop.AddCycles(Cycles(line / 4 * 2));
          }
          m.loop.memory().ZeroFrame(*frame);
        }
        // Both sides took the same frame, and the run side really zeroed it.
        EXPECT_TRUE(m.run.memory().FrameIsZero(*frame));
        ExpectMachinesEqual(m.run, m.loop);
        Traffic(m.run, page, 200);
        Traffic(m.loop, page, 200);
      }
      ExpectMachinesEqual(m.run, m.loop);
    }
  }
}

}  // namespace
}  // namespace ppcmm
