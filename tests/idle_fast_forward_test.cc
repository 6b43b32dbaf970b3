// The idle chunk contract: Kernel::RunIdle charges n idle iterations at a time (one fetch
// replay through Mmu::ReplaySpan and a stride-0 Machine::TouchInstructionRun, n loop
// bodies, one PTEG sweep over the n passes, the page zeroes and the spins), and that must be
// bit-identical to iterating. Every case runs one idle schedule with translation spans off
// (the per-iteration reference) and on, then compares everything the simulation exposes:
// HwCounters, the I and D cache stats and per-CPU clocks, a follow-up workload's hits and
// misses (which see the LRU state the idle loop left), and with the ledger on its cells,
// event count and trace ring.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/sim/fault_injector.h"

namespace ppcmm {
namespace {

struct Snapshot {
  HwCounters counters;
  std::vector<CacheStats> icache;  // per CPU
  std::vector<CacheStats> dcache;
  std::vector<uint64_t> cpu_cycles;
  std::vector<CycleLedger::Cell> cells;
  uint64_t events_recorded = 0;
  std::vector<AttrEvent> ring;
  uint64_t idle_spans = 0;  // span accesses formed inside the boundary-aligned RunIdle
};

void ExpectCacheStatsEqual(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.dirty_writebacks, b.dirty_writebacks);
  EXPECT_EQ(a.uncached_accesses, b.uncached_accesses);
  EXPECT_EQ(a.prefetches, b.prefetches);
}

void ExpectSnapshotsEqual(const Snapshot& off, const Snapshot& on) {
  off.counters.ForEachField([&](const char* name, uint64_t value_off, bool) {
    on.counters.ForEachField([&](const char* on_name, uint64_t value_on, bool) {
      if (std::string(name) == on_name) {
        EXPECT_EQ(value_off, value_on) << name;
      }
    });
  });
  ASSERT_EQ(off.icache.size(), on.icache.size());
  for (size_t cpu = 0; cpu < off.icache.size(); ++cpu) {
    SCOPED_TRACE("cpu " + std::to_string(cpu));
    ExpectCacheStatsEqual(off.icache[cpu], on.icache[cpu]);
    ExpectCacheStatsEqual(off.dcache[cpu], on.dcache[cpu]);
  }
  EXPECT_EQ(off.cpu_cycles, on.cpu_cycles);
  ASSERT_EQ(off.cells.size(), on.cells.size());
  for (size_t i = 0; i < off.cells.size(); ++i) {
    EXPECT_EQ(off.cells[i].path, on.cells[i].path);
    EXPECT_EQ(off.cells[i].task, on.cells[i].task);
    EXPECT_EQ(off.cells[i].cycles, on.cells[i].cycles);
  }
  EXPECT_EQ(off.events_recorded, on.events_recorded);
  ASSERT_EQ(off.ring.size(), on.ring.size());
  for (size_t i = 0; i < off.ring.size(); ++i) {
    EXPECT_EQ(off.ring[i].end_cycle, on.ring[i].end_cycle);
    EXPECT_EQ(off.ring[i].cycles, on.ring[i].cycles);
    EXPECT_EQ(off.ring[i].task, on.ring[i].task);
    EXPECT_EQ(off.ring[i].cause, on.ring[i].cause);
    EXPECT_EQ(off.ring[i].depth, on.ring[i].depth);
    EXPECT_EQ(off.ring[i].cpu, on.ring[i].cpu);
  }
}

// A System built with translation spans on, or off for the per-access reference.
std::unique_ptr<System> BuildSystem(const MachineConfig& machine, const OptimizationConfig& opts,
                                    bool spans) {
  const ScopedSpanDefault spans_default(spans);
  return std::make_unique<System>(machine, opts);
}

Snapshot TakeSnapshot(System& sys, uint64_t idle_spans, FaultInjector* injector = nullptr);

// The idle schedule: a cold slice (zeroing fills the list toward its cap, reclaim sweeps),
// then slices shorter than one iteration, ending exactly on an iteration boundary and
// ending mid-iteration, an idle slice on the second CPU, and a follow-up workload that runs
// into whatever cache and TLB state the idle spin left behind.
Snapshot DriveIdle(System& sys, bool ledger, FaultInjector* injector = nullptr) {
  sys.machine().attr().SetEnabled(ledger);
  if (injector != nullptr) {
    sys.kernel().SetFaultInjector(injector);
  }
  Kernel& kernel = sys.kernel();
  const TaskId t = kernel.CreateTask("t");
  kernel.Exec(t, ExecImage{.text_pages = 4, .data_pages = 32, .stack_pages = 2});
  kernel.SwitchTo(t);
  kernel.UserTouchRun(EffAddr(kUserDataBase), kPageSize, 8, AccessKind::kStore);

  kernel.RunIdle(Cycles(300'000));
  const Cycles before = sys.machine().Now();
  kernel.RunIdle(Cycles(1));  // exactly one (warm) iteration
  const uint64_t per = (sys.machine().Now() - before).value;
  if (per > 1) {
    kernel.RunIdle(Cycles(per - 1));
  }
  const uint64_t spans_before = sys.mmu().span_accesses();
  kernel.RunIdle(Cycles(1000 * per));
  const uint64_t idle_spans = sys.mmu().span_accesses() - spans_before;
  kernel.RunIdle(Cycles(1000 * per + per / 2));
  kernel.RunIdle(Cycles(100 * per + 1));  // one cycle into the last iteration
  if (sys.machine().ncpus() > 1) {
    kernel.SwitchCpu(1);
    kernel.RunIdle(Cycles(60'000));
    kernel.SwitchCpu(0);
  }

  // Follow-up: instruction and data streams plus fresh allocations that drain the prezeroed
  // list, so LRU and list state left by the spin decide later hits, misses and victims.
  kernel.UserExecute(4'000);
  kernel.UserTouchRun(EffAddr(kUserDataBase), 32, 8 * (kPageSize / 32), AccessKind::kLoad);
  kernel.UserTouchRun(EffAddr(kUserDataBase + 8 * kPageSize), kPageSize, 16,
                      AccessKind::kStore);
  kernel.RunIdle(Cycles(5'000));
  return TakeSnapshot(sys, idle_spans, injector);
}

// The state a run leaves, plus the idle spans it counted.
Snapshot TakeSnapshot(System& sys, uint64_t idle_spans, FaultInjector* injector) {
  Snapshot snap;
  snap.counters = sys.counters();
  for (uint32_t cpu = 0; cpu < sys.machine().ncpus(); ++cpu) {
    snap.icache.push_back(sys.machine().icache(cpu).stats());
    snap.dcache.push_back(sys.machine().dcache(cpu).stats());
    snap.cpu_cycles.push_back(sys.machine().CpuCycles(cpu));
  }
  snap.cells = sys.machine().attr().Cells();
  snap.events_recorded = sys.machine().attr().events_recorded();
  snap.ring = sys.machine().attr().RecentEvents();
  snap.idle_spans = idle_spans;
  if (injector != nullptr) {
    sys.kernel().SetFaultInjector(nullptr);
  }
  return snap;
}

struct MachineCase {
  const char* name;
  MachineConfig config;
};

std::vector<MachineCase> Machines() {
  std::vector<MachineCase> out;
  for (const uint32_t ncpus : {1u, 2u}) {
    MachineConfig m603 = MachineConfig::Ppc603(133);
    MachineConfig m604 = MachineConfig::Ppc604(185);
    m603.ncpus = m604.ncpus = ncpus;
    const bool smp = ncpus > 1;
    out.push_back({smp ? "603x2" : "603", m603});
    out.push_back({smp ? "604x2" : "604", m604});
  }
  return out;
}

const char* ZeroName(IdleZeroPolicy policy) {
  switch (policy) {
    case IdleZeroPolicy::kOff: return "zero_off";
    case IdleZeroPolicy::kCached: return "zero_cached";
    case IdleZeroPolicy::kUncachedWithList: return "zero_uncached_list";
    case IdleZeroPolicy::kUncachedNoList: return "zero_uncached_nolist";
  }
  return "?";
}

TEST(IdleFastForwardTest, BitIdenticalToTheSpinLoopAcrossTheMatrix) {
  for (const MachineCase& machine : Machines()) {
    for (const IdleZeroPolicy zero :
         {IdleZeroPolicy::kOff, IdleZeroPolicy::kCached, IdleZeroPolicy::kUncachedWithList,
          IdleZeroPolicy::kUncachedNoList}) {
      for (const bool reclaim : {false, true}) {
        for (const bool uncached_idle : {false, true}) {
          for (const bool kernel_bat : {false, true}) {
            for (const bool ledger : {false, true}) {
              SCOPED_TRACE(std::string(machine.name) + "/" + ZeroName(zero) +
                           (reclaim ? "/reclaim" : "") + (uncached_idle ? "/uncached_idle" : "") +
                           (kernel_bat ? "/kbat" : "") + (ledger ? "/ledger" : ""));
              OptimizationConfig opts = OptimizationConfig::Baseline();
              opts.idle_zero = zero;
              opts.idle_zombie_reclaim = reclaim;
              opts.uncached_idle_task = uncached_idle;
              opts.kernel_bat_mapping = kernel_bat;

              const Snapshot off =
                  DriveIdle(*BuildSystem(machine.config, opts, /*spans=*/false), ledger);
              const Snapshot on =
                  DriveIdle(*BuildSystem(machine.config, opts, /*spans=*/true), ledger);
              ExpectSnapshotsEqual(off, on);

              // Spans form only when switched on and only for the translated
              // (cached-variant) fetch: never when a live ledger must record each
              // iteration's reclaim or zero scope, nor when a cached zero would share the
              // D-cache with a (cached) reclaim sweep.
              EXPECT_EQ(off.idle_spans, 0u);
              const bool engages = !uncached_idle &&
                                   !(ledger && (reclaim || zero != IdleZeroPolicy::kOff)) &&
                                   !(reclaim && zero == IdleZeroPolicy::kCached);
              if (engages) {
                EXPECT_GE(on.idle_spans, 990u) << "idle chunks never engaged";
              } else {
                EXPECT_EQ(on.idle_spans, 0u);
              }
            }
          }
        }
      }
    }
  }
}

TEST(IdleFastForwardTest, NeverEngagesWithAFaultInjectorAttached) {
  // Spurious TLB flushes poll on every MMU access, so no span may skip a poll: with the
  // injector attached both runs iterate, and the injector's own stream must match.
  for (const bool uncached_idle : {false, true}) {
    SCOPED_TRACE(uncached_idle ? "uncached_idle" : "cached_idle");
    OptimizationConfig opts = OptimizationConfig::AllOptimizations();
    opts.uncached_idle_task = uncached_idle;
    opts.idle_zombie_reclaim = false;
    auto run = [&](bool spans) {
      FaultInjector injector(17);
      injector.Enable(FaultClass::kSpuriousTlbFlush, 400);
      Snapshot snap = DriveIdle(*BuildSystem(MachineConfig::Ppc604(185), opts, spans),
                                /*ledger=*/false, &injector);
      return std::pair<Snapshot, uint64_t>(snap, injector.Polls(FaultClass::kSpuriousTlbFlush));
    };
    const auto [off, polls_off] = run(false);
    const auto [on, polls_on] = run(true);
    ExpectSnapshotsEqual(off, on);
    EXPECT_EQ(polls_off, polls_on);
    EXPECT_EQ(on.idle_spans, 0u);
  }
}

// The reclaim schedule: lazy flushes leave zombies all over the HTAB (an exited child, a
// re-exec), then idle slices as in DriveIdle reclaim them in chunks, with more zombies made
// between the slices, and a follow-up runs into the D-cache and HTAB state they left.
Snapshot DriveReclaim(System& sys) {
  Kernel& kernel = sys.kernel();
  const TaskId t = kernel.CreateTask("t");
  kernel.Exec(t, ExecImage{.text_pages = 4, .data_pages = 96, .stack_pages = 2});
  kernel.SwitchTo(t);
  kernel.UserTouchRun(EffAddr(kUserDataBase), kPageSize, 64, AccessKind::kStore);
  const TaskId child = kernel.Fork(t);
  kernel.SwitchTo(child);
  kernel.UserTouchRun(EffAddr(kUserDataBase), kPageSize, 96, AccessKind::kLoad);
  kernel.Exit(child);
  kernel.SwitchTo(t);

  kernel.RunIdle(Cycles(200'000));
  const Cycles before = sys.machine().Now();
  kernel.RunIdle(Cycles(1));  // exactly one iteration
  const uint64_t per = (sys.machine().Now() - before).value;
  const uint64_t spans_before = sys.mmu().span_accesses();
  kernel.RunIdle(Cycles(300 * per));
  const uint64_t idle_spans = sys.mmu().span_accesses() - spans_before;
  kernel.Exec(t, ExecImage{.text_pages = 4, .data_pages = 96, .stack_pages = 2});
  kernel.UserTouchRun(EffAddr(kUserDataBase), kPageSize, 80, AccessKind::kStore);
  kernel.Exec(t, ExecImage{.text_pages = 4, .data_pages = 96, .stack_pages = 2});
  kernel.RunIdle(Cycles(500 * per + per / 2));
  kernel.RunIdle(Cycles(40 * per + 1));
  if (sys.machine().ncpus() > 1) {
    kernel.SwitchCpu(1);
    kernel.RunIdle(Cycles(100 * per));
    kernel.SwitchCpu(0);
  }

  kernel.UserExecute(4'000);
  kernel.UserTouchRun(EffAddr(kUserDataBase), kPageSize, 48, AccessKind::kStore);
  kernel.RunIdle(Cycles(20 * per));
  return TakeSnapshot(sys, idle_spans);
}

TEST(IdleFastForwardTest, ReclaimChunksBitIdenticalAcrossTheReclaimMatrix) {
  // A pass scans kIdleReclaimPtegsPerPass = 16 PTEGs. An 8-PTEG table clamps the pass to the
  // table and a 16-PTEG one is a whole table per pass, so neither chunks; in a 64-PTEG table
  // a chunk holds at most 4 passes and the cursor wraps inside chunks.
  MachineConfig smp604 = MachineConfig::Ppc604(185);
  smp604.ncpus = 2;
  const std::vector<MachineCase> cpus = {{"604", MachineConfig::Ppc604(185)},
                                         {"603", MachineConfig::Ppc603(133)},
                                         {"604x2", smp604}};
  for (MachineCase machine : cpus) {
    for (const uint32_t num_ptegs : {8u, 16u, 64u, 2048u}) {
      machine.config.htab_ptegs = num_ptegs;
      for (const IdleZeroPolicy zero :
           {IdleZeroPolicy::kOff, IdleZeroPolicy::kCached, IdleZeroPolicy::kUncachedWithList,
            IdleZeroPolicy::kUncachedNoList}) {
        for (const bool uncached_pt : {false, true}) {
          for (const bool kernel_bat : {false, true}) {
            SCOPED_TRACE(std::string(machine.name) + "/ptegs_" + std::to_string(num_ptegs) +
                         "/" + ZeroName(zero) + (uncached_pt ? "/uncached_pt" : "") +
                         (kernel_bat ? "/kbat" : ""));
            OptimizationConfig opts = OptimizationConfig::Baseline();
            opts.lazy_context_flush = true;
            opts.idle_zombie_reclaim = true;
            opts.idle_zero = zero;
            opts.uncached_page_tables = uncached_pt;
            opts.kernel_bat_mapping = kernel_bat;

            const Snapshot off = DriveReclaim(*BuildSystem(machine.config, opts, false));
            const Snapshot on = DriveReclaim(*BuildSystem(machine.config, opts, true));
            ExpectSnapshotsEqual(off, on);
            EXPECT_GT(on.counters.zombies_reclaimed, 0u);
            EXPECT_EQ(off.idle_spans, 0u);
            // A cached zero chunks only beside an uncached sweep.
            const bool cached_zero_beside_sweep = zero == IdleZeroPolicy::kCached && !uncached_pt;
            const bool two_passes_fit = num_ptegs / 16 >= 2;
            if (two_passes_fit && !cached_zero_beside_sweep) {
              EXPECT_GE(on.idle_spans, 250u) << "reclaim chunks never engaged";
            } else {
              EXPECT_EQ(on.idle_spans, 0u);
            }
          }
        }
      }
    }
  }
}

TEST(IdleFastForwardTest, ChunksSpinsPastThirtyTwoBits) {
  // A budget of more than 2^32 iterations must split into chunks and still charge every
  // iteration: one fetch translation, one I-cache hit and one iteration's cycles each.
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::Baseline());
  Kernel& kernel = sys.kernel();
  kernel.RunIdle(Cycles(10'000));  // warm the fetch line and its translation
  const Cycles before = sys.machine().Now();
  kernel.RunIdle(Cycles(1));
  const uint64_t per = (sys.machine().Now() - before).value;

  const uint64_t iterations = (uint64_t{1} << 32) + 12345;
  const HwCounters start = sys.counters();
  const CacheStats istart = sys.machine().icache().stats();
  const uint64_t spans_start = sys.mmu().span_accesses();
  kernel.RunIdle(Cycles(iterations * per));
  const HwCounters& end = sys.counters();
  EXPECT_EQ(end.cycles - start.cycles, iterations * per);
  EXPECT_EQ(end.itlb_accesses - start.itlb_accesses, iterations);
  EXPECT_EQ(sys.machine().icache().stats().hits - istart.hits, iterations);
  EXPECT_EQ(sys.machine().icache().stats().misses, istart.misses);
  EXPECT_EQ(sys.mmu().span_accesses() - spans_start, iterations);
}

}  // namespace
}  // namespace ppcmm
