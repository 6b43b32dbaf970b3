// SMP TLB shootdown property tests.
//
// The paper's §7 lazy VSID-bump flush is usually pitched as a uniprocessor latency win; on
// SMP it is something stronger — a shootdown *eliminator*. These tests pin down both sides:
//
//   * eager flushes run real shootdown rounds: after a completed round no CPU's TLB holds
//     an invalidated translation, busy remote CPUs pay an IPI, and idle remote CPUs are
//     skipped (the cpu_idle_wait idiom) without ever losing coherence — their deferred
//     whole-TLB flush lands at the next switch-in;
//   * every cycle the attribution ledger books to kTlbShootdown is conserved against the
//     hardware counters: ipis * (send + receive + invalidate) + deferred * tlbia — no
//     shootdown work is double-charged or lost;
//   * the lazy VSID-bump path performs the same storm with *zero* shootdown rounds, because
//     retired VSIDs are unreachable on every CPU and remote zombie entries are harmless;
//   * a seeded shootdown storm is bit-deterministic: same seed, same ncpus => identical
//     global clock, per-CPU clocks, and shootdown counters.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/system.h"
#include "src/sim/rng.h"
#include "src/verify/coherence_auditor.h"

namespace ppcmm {
namespace {

MachineConfig SmpConfig(uint32_t ncpus) {
  MachineConfig config = MachineConfig::Ppc604(185);
  config.ncpus = ncpus;
  return config;
}

TaskId SpawnStd(Kernel& kernel, const char* name) {
  const TaskId id = kernel.CreateTask(name);
  kernel.Exec(id, ExecImage{.text_pages = 8, .data_pages = 32, .stack_pages = 4});
  kernel.SwitchTo(id);
  return id;
}

uint32_t MapAndTouch(Kernel& kernel, uint32_t pages) {
  const uint32_t start = kernel.Mmap(pages);
  for (uint32_t i = 0; i < pages; ++i) {
    kernel.UserTouch(EffAddr::FromPage(start + i), AccessKind::kStore);
  }
  return start;
}

// Counts TLB entries (both sides) on `cpu` translating pages [start, start+count) of the
// context owning `vsid`'s segment — the stale-window probe.
uint32_t EntriesFor(Mmu& mmu, uint32_t cpu, Vsid vsid, uint32_t start, uint32_t count) {
  uint32_t found = 0;
  const auto scan = [&](const TlbEntry& e) {
    for (uint32_t i = 0; i < count; ++i) {
      const EffAddr ea = EffAddr::FromPage(start + i);
      if (e.vsid == vsid && e.page_index == ea.PageIndex()) {
        ++found;
      }
    }
  };
  mmu.itlb(cpu).ForEachValid(scan);
  mmu.dtlb(cpu).ForEachValid(scan);
  return found;
}

// A task builds TLB state on CPU 0, is scheduled out (entries stay — they are VSID-tagged),
// migrates to CPU 1 and munmaps. The eager flush must shoot CPU 0's now-stale entries down
// through an IPI: after the round completes, no CPU holds the dead translation.
TEST(SmpShootdown, NoStaleEntryInAnyTlbAfterCompletedShootdown) {
  System sys(SmpConfig(2), OptimizationConfig::Baseline());
  Kernel& kernel = sys.kernel();
  CoherenceAuditor auditor(kernel);

  const TaskId a = SpawnStd(kernel, "a");
  const uint32_t start = MapAndTouch(kernel, 4);
  const Vsid vsid =
      kernel.vsids().UserVsid(kernel.task(a).mm->context, EffAddr::FromPage(start).SegmentIndex());
  SpawnStd(kernel, "b");  // CPU 0 now runs b; a's entries linger in CPU 0's TLB
  ASSERT_GT(EntriesFor(sys.mmu(), 0, vsid, start, 4), 0u)
      << "test premise broken: scheduling b out of a left no stale window on CPU 0";

  kernel.SwitchCpu(1);
  kernel.SwitchTo(a);  // a migrates to CPU 1
  const HwCounters before = sys.counters();
  kernel.Munmap(start, 4);
  const HwCounters delta = sys.counters().Diff(before);

  EXPECT_GE(delta.tlb_shootdown_requests, 1u);
  EXPECT_GE(delta.tlb_shootdown_ipis, 1u) << "busy CPU 0 must take an IPI";
  EXPECT_EQ(delta.tlb_shootdown_idle_skips, 0u) << "no CPU was idle";
  for (uint32_t cpu = 0; cpu < kernel.ncpus(); ++cpu) {
    EXPECT_EQ(EntriesFor(sys.mmu(), cpu, vsid, start, 4), 0u)
        << "stale translation survived the shootdown on cpu " << cpu;
  }
  EXPECT_NO_THROW(auditor.Audit());
}

// An idle CPU holding stale-but-harmless TLB entries must be *skipped* by the shootdown
// round (no IPI — the cpu_idle_wait idiom), marked flush-pending, and the auditor must
// tolerate its whole TLB until the deferred tlbia lands at the next switch-in. Coherence
// is never lost: by the time any task runs there again, the TLB is empty.
//
// The window comes from the lazy config: b runs on CPU 1, then exits — the lazy path
// retires b's context without any flush, so CPU 1 sits idle with a TLB full of zombie
// entries. A small (below-cutoff) munmap by a on CPU 0 then runs an eager shootdown round
// that finds CPU 1 idle.
TEST(SmpShootdown, IdleCpusAreSkippedAndPayOneDeferredFlushAtSwitchIn) {
  System sys(SmpConfig(2), OptimizationConfig::OnlyLazyFlush(20));
  Kernel& kernel = sys.kernel();
  CoherenceAuditor auditor(kernel);

  SpawnStd(kernel, "a");
  kernel.SwitchCpu(1);
  const TaskId b = SpawnStd(kernel, "b");
  MapAndTouch(kernel, 4);  // b populates CPU 1's TLB
  kernel.SwitchCpu(0);
  kernel.Exit(b);  // lazy exit: no flush, CPU 1 idle, its TLB keeps b's zombie entries
  ASSERT_FALSE(kernel.FlushPendingOn(1));
  ASSERT_GT(sys.mmu().dtlb(1).ValidCount() + sys.mmu().itlb(1).ValidCount(), 0u)
      << "test premise broken: lazy exit should leave CPU 1's TLB populated";

  const uint32_t start = MapAndTouch(kernel, 4);
  const HwCounters before = sys.counters();
  kernel.Munmap(start, 4);  // below the cutoff: eager flush + shootdown round
  const HwCounters delta = sys.counters().Diff(before);
  EXPECT_GE(delta.tlb_shootdown_requests, 1u);
  EXPECT_GE(delta.tlb_shootdown_idle_skips, 1u) << "idle CPU 1 must be skipped, not IPI'd";
  EXPECT_EQ(delta.tlb_shootdown_ipis, 0u);
  EXPECT_TRUE(kernel.FlushPendingOn(1));
  EXPECT_FALSE(kernel.FlushPendingOn(0));

  // The auditor must tolerate CPU 1's logically-invalid TLB while the flush is pending.
  EXPECT_NO_THROW(auditor.Audit());
  EXPECT_GT(auditor.stats().tlb_stale_tolerated, 0u)
      << "CPU 1 held valid entries; the flush-pending exemption must have counted them";

  // The spotlight's return pays the one deferred whole-TLB flush, exactly once.
  const HwCounters before_switch = sys.counters();
  kernel.SwitchCpu(1);
  const HwCounters switch_delta = sys.counters().Diff(before_switch);
  EXPECT_EQ(switch_delta.tlb_shootdown_deferred_flushes, 1u);
  EXPECT_FALSE(kernel.FlushPendingOn(1));
  EXPECT_EQ(sys.mmu().itlb(1).ValidCount(), 0u);
  EXPECT_EQ(sys.mmu().dtlb(1).ValidCount(), 0u);
  kernel.SwitchCpu(1);  // a second hop owes nothing
  EXPECT_EQ(sys.counters().Diff(before_switch).tlb_shootdown_deferred_flushes, 1u);
  EXPECT_NO_THROW(auditor.Audit());
}

// Drives a seeded shootdown storm: three tasks pinned by the spotlight to CPUs 0-2 of a
// 4-CPU machine (CPU 3 stays idle all along), each round hopping to a random busy CPU and
// remapping a small working set, so every flush runs a round with both busy and idle
// remote CPUs. Returns the per-CPU local clocks at the end.
std::vector<uint64_t> RunShootdownStorm(System& sys, uint64_t seed, uint32_t rounds) {
  Kernel& kernel = sys.kernel();
  std::vector<TaskId> tasks;
  const uint32_t busy = kernel.ncpus() > 1 ? kernel.ncpus() - 1 : 1;
  for (uint32_t cpu = 0; cpu < busy; ++cpu) {
    kernel.SwitchCpu(cpu);
    tasks.push_back(SpawnStd(kernel, "storm"));
  }
  Rng rng(seed);
  for (uint32_t i = 0; i < rounds; ++i) {
    kernel.SwitchCpu(static_cast<uint32_t>(rng.NextBelow(busy)));
    const uint32_t pages = 2 + static_cast<uint32_t>(rng.NextBelow(3));
    const uint32_t start = kernel.Mmap(pages);
    for (uint32_t p = 0; p < pages; ++p) {
      kernel.UserTouch(EffAddr::FromPage(start + p), AccessKind::kStore);
    }
    kernel.Munmap(start, pages);
  }
  std::vector<uint64_t> clocks;
  for (uint32_t cpu = 0; cpu < kernel.ncpus(); ++cpu) {
    clocks.push_back(sys.machine().CpuCycles(cpu));
  }
  return clocks;
}

// Conservation: every cycle attributed to kTlbShootdown is explained by the counters —
// each IPI costs send + receive + invalidate on the two clocks involved, each deferred
// flush costs one tlbia — and nothing else ever runs under that cause.
TEST(SmpShootdown, AttributedCyclesMatchTheCountersExactly) {
  System sys(SmpConfig(4), OptimizationConfig::Baseline());
  sys.machine().attr().SetEnabled(true);
  RunShootdownStorm(sys, 0x57D0u, 60);

  const HwCounters& counters = sys.counters();
  ASSERT_GT(counters.tlb_shootdown_ipis, 0u);
  ASSERT_GT(counters.tlb_shootdown_idle_skips, 0u) << "CPU 3 must have been idle-skipped";

  uint64_t attributed = 0;
  for (const CycleLedger::Cell& cell : sys.machine().attr().Cells()) {
    for (const AttrCause cause : cell.path) {
      if (cause == AttrCause::kTlbShootdown) {
        attributed += cell.cycles;
        break;
      }
    }
  }
  const uint64_t per_ipi = kIpiSendCycles + kIpiReceiveCycles + kTlbInvalidateCycles;
  const uint64_t expected = counters.tlb_shootdown_ipis * per_ipi +
                            counters.tlb_shootdown_deferred_flushes * kTlbInvalidateCycles;
  EXPECT_EQ(attributed, expected)
      << "kTlbShootdown attribution does not reconcile with the shootdown counters: ipis="
      << counters.tlb_shootdown_ipis
      << " deferred=" << counters.tlb_shootdown_deferred_flushes;
}

// The same storm under lazy VSID-bump flushing: every munmap above the cutoff retires the
// context instead of flushing pages, so no shootdown round ever runs — the paper's trick
// does not just speed up the local flush, it deletes the cross-CPU traffic outright.
TEST(SmpShootdown, LazyVsidBumpRunsTheStormWithZeroShootdowns) {
  System sys(SmpConfig(4), OptimizationConfig::OnlyLazyFlush(1));
  Kernel& kernel = sys.kernel();
  CoherenceAuditor auditor(kernel);
  RunShootdownStorm(sys, 0x57D1u, 60);

  EXPECT_EQ(sys.counters().tlb_shootdown_requests, 0u);
  EXPECT_EQ(sys.counters().tlb_shootdown_ipis, 0u);
  EXPECT_GT(sys.counters().tlb_context_flushes, 0u) << "the storm must have taken lazy flushes";
  EXPECT_NO_THROW(auditor.Audit());
}

// On a uniprocessor the whole mechanism is inert: the storm runs, nothing shoots down.
TEST(SmpShootdown, UniprocessorStormNeverShootsDown) {
  System sys(SmpConfig(1), OptimizationConfig::Baseline());
  RunShootdownStorm(sys, 0x57D2u, 30);
  EXPECT_EQ(sys.counters().tlb_shootdown_requests, 0u);
  EXPECT_EQ(sys.counters().tlb_shootdown_ipis, 0u);
  EXPECT_EQ(sys.counters().tlb_shootdown_idle_skips, 0u);
  EXPECT_EQ(sys.counters().tlb_shootdown_deferred_flushes, 0u);
}

// Seed-replay determinism: the same seed and width reproduce the interleaving bit-exactly
// (global clock, every per-CPU clock, every shootdown counter); a different seed does not.
TEST(SmpShootdown, StormIsBitDeterministicPerSeed) {
  System run1(SmpConfig(4), OptimizationConfig::Baseline());
  const std::vector<uint64_t> clocks1 = RunShootdownStorm(run1, 0xD37u, 40);
  System run2(SmpConfig(4), OptimizationConfig::Baseline());
  const std::vector<uint64_t> clocks2 = RunShootdownStorm(run2, 0xD37u, 40);

  EXPECT_EQ(run1.counters().cycles, run2.counters().cycles);
  EXPECT_EQ(run1.counters().tlb_shootdown_requests, run2.counters().tlb_shootdown_requests);
  EXPECT_EQ(run1.counters().tlb_shootdown_ipis, run2.counters().tlb_shootdown_ipis);
  EXPECT_EQ(run1.counters().tlb_shootdown_idle_skips,
            run2.counters().tlb_shootdown_idle_skips);
  EXPECT_EQ(run1.counters().tlb_shootdown_deferred_flushes,
            run2.counters().tlb_shootdown_deferred_flushes);
  EXPECT_EQ(clocks1, clocks2);

  System run3(SmpConfig(4), OptimizationConfig::Baseline());
  const std::vector<uint64_t> clocks3 = RunShootdownStorm(run3, 0xD38u, 40);
  EXPECT_NE(clocks1, clocks3) << "different seeds should interleave differently";
}

}  // namespace
}  // namespace ppcmm
