// The translation-span contract: spans must be simulation-invisible.
//
// Mmu::ReplaySpan judges a span with Access()'s own BAT → segment register → TLB lookup,
// made side-effect-free, and replays the exact counter increments, LRU ticks and cache
// charges the per-access path would have produced. Every HwCounters field — cycles first
// of all — must therefore be bit-identical with spans on and off, across every reload
// strategy, every flush scheme, fault injection, and the torture harness. These tests run
// each workload on a System built with spans on and on its per-access twin built under
// ScopedSpanDefault(false), diff the complete counter set, and check that a declined probe
// leaves no trace: TLB misses, clean and read-only store targets, tlbie, lazy VSID bumps
// and BAT rewrites.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/sim/fault_injector.h"
#include "src/verify/torture.h"
#include "src/workloads/kernel_compile.h"
#include "src/workloads/lmbench.h"

namespace ppcmm {
namespace {

// A System built with translation spans on, or off for the per-access reference.
std::unique_ptr<System> BuildSystem(const MachineConfig& machine, const OptimizationConfig& opts,
                                    bool spans) {
  const ScopedSpanDefault spans_default(spans);
  return std::make_unique<System>(machine, opts);
}

void ExpectCountersIdentical(const HwCounters& off, const HwCounters& on) {
  off.ForEachField([&](const char* name, uint64_t value_off, bool) {
    bool found = false;
    on.ForEachField([&](const char* on_name, uint64_t value_on, bool) {
      if (std::string(name) == on_name) {
        EXPECT_EQ(value_off, value_on) << name;
        found = true;
      }
    });
    EXPECT_TRUE(found) << name;
  });
  EXPECT_EQ(off.cycles, on.cycles);
}

// Every valid entry of the current CPU's TLBs with its LRU stamp, so a probe that moved a
// tick or refreshed an entry shows even where no counter does.
std::vector<std::tuple<uint32_t, uint32_t, uint32_t, bool, uint64_t>> TlbState(Mmu& mmu) {
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t, bool, uint64_t>> state;
  for (Tlb* tlb : {&mmu.itlb(), &mmu.dtlb()}) {
    tlb->ForEachValid([&](const TlbEntry& e) {
      state.emplace_back(e.vsid.value, e.page_index, e.frame, e.changed, e.last_used);
    });
  }
  return state;
}

// The obs_guard workload shape: faults, COW breaks, reloads, eager and lazy flushes,
// context switches, idle reclaim — every translation path the MMU has — plus a
// cache-line-stride run over the resident set for spans to replay.
void MixedWorkload(System& sys) {
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  kernel.Exec(a, ExecImage{.text_pages = 4, .data_pages = 64, .stack_pages = 4});
  kernel.SwitchTo(a);
  for (uint32_t i = 0; i < 32; ++i) {
    kernel.UserTouch(EffAddr(kUserDataBase + i * kPageSize), AccessKind::kStore);
  }
  kernel.UserTouchRun(EffAddr(kUserDataBase), 64, 32 * (kPageSize / 64), AccessKind::kLoad);
  const TaskId child = kernel.Fork(a);
  kernel.SwitchTo(child);
  for (uint32_t i = 0; i < 8; ++i) {
    kernel.UserTouch(EffAddr(kUserDataBase + i * kPageSize), AccessKind::kStore);  // COW
  }
  const uint32_t map = kernel.Mmap(30);
  for (uint32_t i = 0; i < 30; ++i) {
    kernel.UserTouch(EffAddr::FromPage(map + i), AccessKind::kStore);
  }
  kernel.Munmap(map, 30);  // above the cutoff: lazy VSID-bump context flush
  const uint32_t map2 = kernel.Mmap(4);
  for (uint32_t i = 0; i < 4; ++i) {
    kernel.UserTouch(EffAddr::FromPage(map2 + i), AccessKind::kStore);
  }
  kernel.Munmap(map2, 4);  // below the cutoff: eager per-page tlbie flush
  kernel.SwitchTo(a);
  kernel.Exit(child);
  kernel.RunIdle(Cycles(20000));
}

struct ConfigCase {
  const char* name;
  MachineConfig machine;
  OptimizationConfig opts;
};

std::vector<ConfigCase> AllStrategies() {
  return {
      {"604_baseline", MachineConfig::Ppc604(133), OptimizationConfig::Baseline()},
      {"604_all_opts", MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations()},
      {"603_sw_htab", MachineConfig::Ppc603(133), OptimizationConfig::Baseline()},
      {"603_direct", MachineConfig::Ppc603(133), OptimizationConfig::OnlyDirectReload()},
      {"604_uncached_pt", MachineConfig::Ppc604(133),
       OptimizationConfig::AllPlusUncachedPageTables()},
  };
}

TEST(FastPathTest, MixedWorkloadIsBitIdenticalAcrossStrategies) {
  for (const ConfigCase& c : AllStrategies()) {
    SCOPED_TRACE(c.name);
    const std::unique_ptr<System> off = BuildSystem(c.machine, c.opts, /*spans=*/false);
    MixedWorkload(*off);
    const std::unique_ptr<System> on = BuildSystem(c.machine, c.opts, /*spans=*/true);
    MixedWorkload(*on);

    EXPECT_EQ(off->mmu().span_accesses(), 0u);
    EXPECT_GT(on->mmu().span_accesses(), 0u) << "spans never engaged";
    ExpectCountersIdentical(off->counters(), on->counters());
  }
}

TEST(FastPathTest, LmBenchPointsAreBitIdentical) {
  auto run = [](bool spans) {
    const std::unique_ptr<System> sys =
        BuildSystem(MachineConfig::Ppc604(133), OptimizationConfig::AllOptimizations(), spans);
    LmBenchParams params;
    params.syscall_iters = 100;
    params.ctxsw_passes = 15;
    params.pipe_latency_iters = 30;
    LmBench suite(*sys, params);
    const double null_us = suite.NullSyscallUs();
    const double ctxsw_us = suite.ContextSwitchUs(2);
    const double pipe_us = suite.PipeLatencyUs();
    const double bw = suite.PipeBandwidthMbs();
    return std::tuple<double, double, double, double, HwCounters>(null_us, ctxsw_us, pipe_us,
                                                                  bw, sys->counters());
  };
  const auto [null_off, ctxsw_off, pipe_off, bw_off, c_off] = run(false);
  const auto [null_on, ctxsw_on, pipe_on, bw_on, c_on] = run(true);
  EXPECT_EQ(null_off, null_on);
  EXPECT_EQ(ctxsw_off, ctxsw_on);
  EXPECT_EQ(pipe_off, pipe_on);
  EXPECT_EQ(bw_off, bw_on);
  ExpectCountersIdentical(c_off, c_on);
}

// Counters, clock and every CPU's cache statistics of two twin Systems.
void ExpectMachinesIdentical(System& off, System& on) {
  ExpectCountersIdentical(off.counters(), on.counters());
  const auto cache = [](System& sys, uint32_t cpu, bool data) -> const CacheStats& {
    return (data ? sys.machine().dcache(cpu) : sys.machine().icache(cpu)).stats();
  };
  for (uint32_t cpu = 0; cpu < off.machine().ncpus(); ++cpu) {
    for (const bool data : {false, true}) {
      SCOPED_TRACE(std::string(data ? "dcache " : "icache ") + std::to_string(cpu));
      const CacheStats& a = cache(off, cpu, data);
      const CacheStats& b = cache(on, cpu, data);
      EXPECT_EQ(a.accesses, b.accesses);
      EXPECT_EQ(a.hits, b.hits);
      EXPECT_EQ(a.misses, b.misses);
      EXPECT_EQ(a.evictions, b.evictions);
      EXPECT_EQ(a.dirty_writebacks, b.dirty_writebacks);
      EXPECT_EQ(a.uncached_accesses, b.uncached_accesses);
      EXPECT_EQ(a.prefetches, b.prefetches);
    }
  }
}

// The context switch charges each task-structure line once with its repeat count when a
// span validates. Over the whole LmBench suite — context switches, pipes, file rereads —
// on every configuration the perfbench sweep builds, on two CPUs and with uncached page
// tables, that must equal the per-access round-robin of the twin built without spans.
TEST(FastPathTest, LmBenchSuitesAreBitIdenticalAcrossSweepConfigs) {
  struct Case {
    std::string name;
    MachineConfig machine;
    OptimizationConfig opts;
  };
  std::vector<Case> cases;
  for (const auto& [cpu, machine] : {std::pair{"604 ", MachineConfig::Ppc604(185)},
                                     std::pair{"603 ", MachineConfig::Ppc603(180)}}) {
    for (const auto& [name, opts] :
         {std::pair{"baseline", OptimizationConfig::Baseline()},
          std::pair{"all_opts", OptimizationConfig::AllOptimizations()},
          std::pair{"direct_reload", OptimizationConfig::OnlyDirectReload()},
          std::pair{"lazy_flush", OptimizationConfig::OnlyLazyFlush()},
          std::pair{"idle_reclaim", OptimizationConfig::OnlyIdleReclaim()},
          std::pair{"bat", OptimizationConfig::OnlyBatMapping()}}) {
      cases.push_back({std::string(cpu) + name, machine, opts});
    }
  }
  MachineConfig dual = MachineConfig::Ppc604(185);
  dual.ncpus = 2;
  cases.push_back({"604x2 all_opts", dual, OptimizationConfig::AllOptimizations()});
  cases.push_back({"604 uncached_pt", MachineConfig::Ppc604(185),
                   OptimizationConfig::AllPlusUncachedPageTables()});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::unique_ptr<System> off = BuildSystem(c.machine, c.opts, /*spans=*/false);
    const std::unique_ptr<System> on = BuildSystem(c.machine, c.opts, /*spans=*/true);
    const LmBenchResult r_off = LmBench(*off).RunAll();
    const LmBenchResult r_on = LmBench(*on).RunAll();
    EXPECT_EQ(r_off.null_syscall_us, r_on.null_syscall_us);
    EXPECT_EQ(r_off.ctxsw_2p_us, r_on.ctxsw_2p_us);
    EXPECT_EQ(r_off.ctxsw_8p_us, r_on.ctxsw_8p_us);
    EXPECT_EQ(r_off.pipe_latency_us, r_on.pipe_latency_us);
    EXPECT_EQ(r_off.pipe_bandwidth_mbs, r_on.pipe_bandwidth_mbs);
    EXPECT_EQ(r_off.file_reread_mbs, r_on.file_reread_mbs);
    EXPECT_EQ(r_off.mmap_latency_us, r_on.mmap_latency_us);
    EXPECT_EQ(r_off.process_start_us, r_on.process_start_us);
    EXPECT_EQ(off->mmu().span_accesses(), 0u);
    ExpectMachinesIdentical(*off, *on);
  }
}

// Where the task-structure span must not form, the switch takes the per-access round-robin
// and still matches its twin: a save into a clean entry under deferred C bits (the first
// store traps), an attached fault injector, and a D-cache way under 512 bytes, where two
// of the eight lines share a set and regrouping them would reorder that set's accesses.
TEST(FastPathTest, TaskStructSpansDeclineWhereTheyWouldNotBeExact) {
  // Two tasks whose structures share a page, then switches between them; returns the span
  // accesses and C-bit traps of the first switch that saves (task a's registers, then b's
  // restore), and the span accesses of the switches after it.
  struct Switches {
    uint64_t first_save_spans = 0;
    uint64_t first_save_traps = 0;
    uint64_t later_spans = 0;
  };
  const auto drive = [](System& sys) {
    Kernel& kernel = sys.kernel();
    const TaskId a = kernel.CreateTask("a");
    const TaskId b = kernel.CreateTask("b");
    for (const TaskId t : {a, b}) {
      kernel.Exec(t, ExecImage{.text_pages = 2, .data_pages = 4, .stack_pages = 2});
    }
    Switches out;
    kernel.SwitchTo(a);
    uint64_t spans = sys.mmu().span_accesses();
    const uint64_t traps = sys.counters().dirty_bit_updates;
    kernel.SwitchTo(b);  // the first store to the task-structure page
    out.first_save_spans = sys.mmu().span_accesses() - spans;
    out.first_save_traps = sys.counters().dirty_bit_updates - traps;
    spans = sys.mmu().span_accesses();
    for (int i = 0; i < 8; ++i) {
      kernel.SwitchTo(i % 2 == 0 ? a : b);
      kernel.UserTouch(EffAddr(kUserDataBase + (i % 4) * kPageSize), AccessKind::kStore);
    }
    out.later_spans = sys.mmu().span_accesses() - spans;
    return out;
  };

  {
    SCOPED_TRACE("deferred C bits");
    const OptimizationConfig opts = OptimizationConfig::Baseline();
    ASSERT_FALSE(opts.lazy_context_flush);
    ASSERT_FALSE(opts.kernel_bat_mapping);  // the task structures go through the DTLB
    const std::unique_ptr<System> off = BuildSystem(MachineConfig::Ppc604(185), opts, false);
    const std::unique_ptr<System> on = BuildSystem(MachineConfig::Ppc604(185), opts, true);
    drive(*off);
    const Switches s = drive(*on);
    EXPECT_GT(s.first_save_traps, 0u);
    // The save's first store traps, so only b's 32-register restore rides a span.
    EXPECT_EQ(s.first_save_spans, 32u) << "a store into a clean entry formed a span";
    EXPECT_GT(s.later_spans, 0u) << "the switch never spanned once the C bit was set";
    ExpectMachinesIdentical(*off, *on);
  }
  {
    SCOPED_TRACE("fault injector");
    const auto run = [&](bool spans) {
      std::unique_ptr<System> sys = BuildSystem(MachineConfig::Ppc604(185),
                                                OptimizationConfig::AllOptimizations(), spans);
      FaultInjector injector(/*seed=*/5);
      injector.Enable(FaultClass::kSpuriousTlbFlush, 16);
      injector.Enable(FaultClass::kZombieFlood, 3);
      sys->kernel().SetFaultInjector(&injector);
      const Switches s = drive(*sys);
      sys->kernel().SetFaultInjector(nullptr);
      return std::tuple<std::unique_ptr<System>, Switches, uint64_t>(
          std::move(sys), s, injector.Fires(FaultClass::kSpuriousTlbFlush));
    };
    const auto [off, s_off, fires_off] = run(false);
    const auto [on, s_on, fires_on] = run(true);
    EXPECT_GT(fires_on, 0u);
    EXPECT_EQ(fires_off, fires_on);
    EXPECT_EQ(on->mmu().span_accesses(), 0u);
    ExpectMachinesIdentical(*off, *on);
  }
  {
    SCOPED_TRACE("D-cache way under 512 bytes");
    MachineConfig small_way = MachineConfig::Ppc604(185);
    small_way.dcache = CacheGeometry{.size_bytes = 512, .line_bytes = 32, .associativity = 2};
    const OptimizationConfig opts = OptimizationConfig::AllOptimizations();
    const std::unique_ptr<System> off = BuildSystem(small_way, opts, false);
    const std::unique_ptr<System> on = BuildSystem(small_way, opts, true);
    drive(*off);
    const Switches s = drive(*on);
    EXPECT_EQ(s.first_save_spans + s.later_spans, 0u);
    ExpectMachinesIdentical(*off, *on);
  }
}

TEST(FastPathTest, KernelCompileIsBitIdenticalAndSpanReplayed) {
  auto run = [](bool spans) {
    const std::unique_ptr<System> sys =
        BuildSystem(MachineConfig::Ppc604(133), OptimizationConfig::AllOptimizations(), spans);
    KernelCompileConfig cc;
    cc.compilation_units = 3;
    const KernelCompileResult result = RunKernelCompile(*sys, cc);
    return std::tuple<double, HwCounters, uint64_t, uint64_t>(
        result.seconds, sys->counters(), sys->mmu().span_accesses(),
        sys->mmu().fast_path_misses());
  };
  const auto [sec_off, c_off, spans_off, walks_off] = run(false);
  const auto [sec_on, c_on, spans_on, walks_on] = run(true);
  EXPECT_EQ(sec_off, sec_on);
  ExpectCountersIdentical(c_off, c_on);
  EXPECT_EQ(spans_off, 0u);
  // The compile's copies and idle spins form spans; every access they carry is one full
  // walk fewer.
  EXPECT_GT(spans_on, 0u);
  EXPECT_EQ(walks_on + spans_on, walks_off);
}

TEST(FastPathTest, TortureSeedsWithInjectionAreIdentical) {
  // The torture harness builds its own System, so hold the process-wide default around it.
  // Fault injection exercises every hostile invalidation source: spurious TLB flushes,
  // HTAB eviction storms, VSID wraps, zombie floods.
  for (const uint64_t seed : {1ull, 7ull, 42ull}) {
    SCOPED_TRACE(seed);
    TortureOptions options;
    options.seed = seed;
    options.ops = 1500;
    options.audit_period = 128;
    options.htab_eviction_storm_one_in = 300;
    options.spurious_tlb_flush_one_in = 200;
    options.vsid_wrap_one_in = 700;
    options.zombie_flood_one_in = 400;

    const TortureResult off = [&] {
      const ScopedSpanDefault spans_off(false);
      return RunTorture(options);
    }();
    const TortureResult on = RunTorture(options);

    EXPECT_FALSE(off.failed) << off.failure_report;
    EXPECT_FALSE(on.failed) << on.failure_report;
    EXPECT_EQ(off.ops_executed, on.ops_executed);
    EXPECT_EQ(off.oom_events, on.oom_events);
    EXPECT_EQ(off.fault_fires, on.fault_fires);
    EXPECT_EQ(off.audit_stats.tlb_entries_checked, on.audit_stats.tlb_entries_checked);
    EXPECT_EQ(off.audit_stats.htab_entries_checked, on.audit_stats.htab_entries_checked);
    // The trace ring records (cycle, event) pairs — byte-identical JSON means the two runs
    // were indistinguishable moment by moment, not just in the totals.
    EXPECT_EQ(off.trace_json, on.trace_json);
  }
}

// Twin Systems run the same schedule; only the first interleaves ReplaySpan probes, each
// of which must decline. A declined probe may not move a counter, a TLB tick or the clock,
// so the twins' counters must match right after the probes and after a follow-up workload
// that runs into the TLB state they left. Afterwards the probing System shows that spans
// engage again after a segment or BAT rewrite, with no invalidate call in between.
TEST(FastPathTest, DeclinedProbesLeaveNoTrace) {
  const EffAddr data(kUserDataBase);
  struct Case {
    const char* name;
    OptimizationConfig opts;
  };
  OptimizationConfig deferred = OptimizationConfig::Baseline();
  deferred.framebuffer_bat = true;
  ASSERT_FALSE(deferred.lazy_context_flush);  // so C bits are deferred
  for (const Case& c : {Case{"deferred_c_bits_fb_bat", deferred},
                        Case{"lazy_flush", OptimizationConfig::OnlyLazyFlush()}}) {
    SCOPED_TRACE(c.name);
    const bool lazy = c.opts.lazy_context_flush;
    auto drive = [&](System& sys, bool probe) {
      Kernel& kernel = sys.kernel();
      const auto decline = [&](EffAddr ea, AccessKind kind, const char* why) {
        if (probe) {
          EXPECT_FALSE(sys.mmu().ReplaySpan(ea, kind, 4).has_value()) << why;
        }
      };
      const TaskId t = kernel.CreateTask("t");
      kernel.Exec(t, ExecImage{.text_pages = 2, .data_pages = 16, .stack_pages = 2});
      kernel.SwitchTo(t);
      decline(data + 5 * kPageSize, AccessKind::kLoad, "TLB miss");
      kernel.UserTouch(data, AccessKind::kLoad);
      if (!lazy) {
        // Deferred C bits: the load left a clean entry, so a store would trap.
        decline(data, AccessKind::kStore, "store to a clean entry");
      }
      kernel.UserTouch(data, AccessKind::kStore);
      kernel.UserTouch(data + kPageSize, AccessKind::kStore);

      const TaskId child = kernel.Fork(t);
      kernel.SwitchTo(child);
      kernel.UserTouch(data + kPageSize, AccessKind::kLoad);
      decline(data + kPageSize, AccessKind::kStore, "store to a COW read-only page");
      kernel.UserTouch(data + kPageSize, AccessKind::kStore);  // COW break
      sys.mmu().TlbInvalidatePage(data + kPageSize);
      decline(data + kPageSize, AccessKind::kLoad, "after tlbie");
      kernel.SwitchTo(t);
      kernel.Exit(child);

      if (lazy) {
        const uint32_t map = kernel.Mmap(40);
        kernel.UserTouchRun(EffAddr::FromPage(map), kPageSize, 40, AccessKind::kStore);
        kernel.Munmap(map, 40);  // above the cutoff: the context takes fresh VSIDs
        EXPECT_GT(sys.counters().tlb_context_flushes, 0u);
        decline(data, AccessKind::kLoad, "after a lazy VSID bump");
      } else {
        const EffAddr fb = EffAddr::FromPage(kernel.MapFramebuffer());
        kernel.UserTouch(fb, AccessKind::kStore);  // through the DBAT: no TLB entry
        kernel.SetFramebufferBat(false);
        decline(fb, AccessKind::kLoad, "after SetFramebufferBat(false)");
        kernel.UserTouch(fb, AccessKind::kLoad);  // the PTE path now
        kernel.SetFramebufferBat(true);
      }
    };
    // Follow-up: runs over the pages the probes looked at, then an idle slice.
    auto follow_up = [&](System& sys) {
      Kernel& kernel = sys.kernel();
      kernel.UserTouchRun(data, 64, 4 * (kPageSize / 64), AccessKind::kStore);
      kernel.UserTouchRun(data, 128, 8 * (kPageSize / 128), AccessKind::kLoad);
      kernel.RunIdle(Cycles(20000));
    };

    System twin(MachineConfig::Ppc604(185), c.opts);
    System probed(MachineConfig::Ppc604(185), c.opts);
    drive(twin, /*probe=*/false);
    drive(probed, /*probe=*/true);
    // The only spans are those the schedule forms on its own (the context switches'
    // register save and restore), on both twins alike.
    EXPECT_EQ(probed.mmu().span_runs(), twin.mmu().span_runs());
    ExpectCountersIdentical(twin.counters(), probed.counters());
    EXPECT_EQ(TlbState(twin.mmu()), TlbState(probed.mmu()));
    follow_up(twin);
    follow_up(probed);
    ExpectCountersIdentical(twin.counters(), probed.counters());
    EXPECT_EQ(TlbState(twin.mmu()), TlbState(probed.mmu()));
    EXPECT_EQ(twin.mmu().span_accesses(), probed.mmu().span_accesses());

    // Spans engage again after the rewrites: the segment registers now hold the fresh
    // VSIDs the follow-up reloaded under, and the framebuffer DBAT is programmed again.
    EXPECT_TRUE(probed.mmu().ReplaySpan(data, AccessKind::kLoad, 4).has_value())
        << "segment rewrite";
    if (!lazy) {
      EXPECT_TRUE(
          probed.mmu().ReplaySpan(EffAddr(kUserFramebufferBase), AccessKind::kLoad, 4)
              .has_value())
          << "BAT rewrite";
    }
  }
}

TEST(FastPathTest, SpuriousTlbFlushInjectionIsIdentical) {
  auto run = [](bool spans) {
    const std::unique_ptr<System> sys =
        BuildSystem(MachineConfig::Ppc604(133), OptimizationConfig::AllOptimizations(), spans);
    FaultInjector injector(/*seed=*/99);
    injector.Enable(FaultClass::kSpuriousTlbFlush, 64);
    sys->kernel().SetFaultInjector(&injector);
    Kernel& kernel = sys->kernel();
    const TaskId t = kernel.CreateTask("t");
    kernel.Exec(t, ExecImage{.text_pages = 2, .data_pages = 32, .stack_pages = 2});
    kernel.SwitchTo(t);
    for (int pass = 0; pass < 20; ++pass) {
      kernel.UserTouchRun(EffAddr(kUserDataBase), 512, 16 * (kPageSize / 512),
                          AccessKind::kStore);
    }
    sys->kernel().SetFaultInjector(nullptr);
    return std::tuple<HwCounters, uint64_t, uint64_t>(
        sys->counters(), injector.Fires(FaultClass::kSpuriousTlbFlush),
        sys->mmu().span_accesses());
  };
  const auto [c_off, fires_off, spans_off] = run(false);
  const auto [c_on, fires_on, spans_on] = run(true);
  ASSERT_GT(fires_off, 0u);
  // Identical poll streams: with an injector attached every access polls it, so spans
  // stand aside and the injector's position in its RNG sequence is preserved.
  EXPECT_EQ(fires_off, fires_on);
  EXPECT_EQ(spans_on, 0u);
  EXPECT_GT(c_on.tlb_all_flushes, 0u);
  ExpectCountersIdentical(c_off, c_on);
}

TEST(FastPathTest, DeferredFirstStoreStillTrapsThenFastPaths) {
  // Deferred C-bit scheme (lazy_context_flush off): a load run leaves clean translations,
  // so the first store to each page must fall off the span into the C-bit trap; the rest
  // of that page's run, and every later store run, rides spans.
  OptimizationConfig opts = OptimizationConfig::Baseline();
  ASSERT_FALSE(opts.lazy_context_flush);
  constexpr uint32_t kPages = 8;
  constexpr uint32_t kPerPage = kPageSize / 64;
  struct Round {
    uint64_t spans = 0;
    uint64_t traps = 0;
  };
  auto run = [&](bool spans) {
    const std::unique_ptr<System> sys = BuildSystem(MachineConfig::Ppc604(133), opts, spans);
    Kernel& kernel = sys->kernel();
    const TaskId t = kernel.CreateTask("t");
    kernel.Exec(t, ExecImage{.text_pages = 2, .data_pages = 16, .stack_pages = 2});
    kernel.SwitchTo(t);
    const auto round = [&](AccessKind kind) {
      const uint64_t spans_before = sys->mmu().span_accesses();
      const uint64_t traps_before = sys->counters().dirty_bit_updates;
      kernel.UserTouchRun(EffAddr(kUserDataBase), 64, kPages * kPerPage, kind);
      return Round{.spans = sys->mmu().span_accesses() - spans_before,
                   .traps = sys->counters().dirty_bit_updates - traps_before};
    };
    round(AccessKind::kLoad);  // faults the pages in
    const Round loads = round(AccessKind::kLoad);
    const Round first_stores = round(AccessKind::kStore);
    const Round second_stores = round(AccessKind::kStore);
    return std::tuple<HwCounters, Round, Round, Round>(sys->counters(), loads, first_stores,
                                                       second_stores);
  };
  const auto [c_off, loads_off, first_off, second_off] = run(false);
  const auto [c_on, loads, first_stores, second_stores] = run(true);
  ExpectCountersIdentical(c_off, c_on);
  EXPECT_EQ(first_off.traps, kPages);
  EXPECT_EQ(first_stores.traps, kPages);
  EXPECT_EQ(second_stores.traps, 0u);
  // Resident clean entries carry loads; the first store per page traps, the rest span.
  EXPECT_EQ(loads.spans, kPages * kPerPage);
  EXPECT_EQ(first_stores.spans, kPages * (kPerPage - 1));
  EXPECT_EQ(second_stores.spans, kPages * kPerPage);
}

TEST(FastPathTest, CowProtectionFaultFallsToSlowPath) {
  auto run = [](bool spans) {
    const std::unique_ptr<System> sys =
        BuildSystem(MachineConfig::Ppc604(133), OptimizationConfig::AllOptimizations(), spans);
    Kernel& kernel = sys->kernel();
    const TaskId parent = kernel.CreateTask("parent");
    kernel.Exec(parent, ExecImage{.text_pages = 2, .data_pages = 16, .stack_pages = 2});
    kernel.SwitchTo(parent);
    kernel.UserTouchRun(EffAddr(kUserDataBase), kPageSize, 8, AccessKind::kStore);
    const TaskId child = kernel.Fork(parent);
    kernel.SwitchTo(child);
    // Read first (the read-only shared translation spans loads), then store (the entry
    // fails the write gate; the per-access path faults and remaps, then spans resume).
    for (uint32_t i = 0; i < 8; ++i) {
      const EffAddr page(kUserDataBase + i * kPageSize);
      kernel.UserTouchRun(page, 256, kPageSize / 256, AccessKind::kLoad);
      kernel.UserTouchRun(page, 256, kPageSize / 256, AccessKind::kStore);
      kernel.UserTouchRun(page, 256, kPageSize / 256, AccessKind::kStore);
    }
    kernel.Exit(child);
    return std::pair<HwCounters, uint64_t>(sys->counters(), sys->mmu().span_accesses());
  };
  const auto [c_off, spans_off] = run(false);
  const auto [c_on, spans_on] = run(true);
  EXPECT_GT(c_on.page_faults, 0u);
  EXPECT_EQ(spans_off, 0u);
  EXPECT_GT(spans_on, 0u);
  ExpectCountersIdentical(c_off, c_on);
}

TEST(FastPathTest, DisabledInstanceNeverEngages) {
  const std::unique_ptr<System> sys = BuildSystem(
      MachineConfig::Ppc604(133), OptimizationConfig::AllOptimizations(), /*spans=*/false);
  MixedWorkload(*sys);
  EXPECT_EQ(sys->mmu().span_runs(), 0u);
  EXPECT_EQ(sys->mmu().fast_path_hits(), 0u);
  // Every translated access was one full Access() walk.
  const HwCounters& c = sys->counters();
  EXPECT_EQ(sys->mmu().fast_path_misses(),
            c.itlb_accesses + c.dtlb_accesses + c.bat_translations);
}

TEST(FastPathTest, DefaultToggleGovernsNewInstances) {
  // The switch is read when an Mmu is built: an instance keeps its setting after the guard
  // that chose it is gone, and the default returns to on.
  std::unique_ptr<System> off;
  {
    const ScopedSpanDefault spans_off(false);
    off = std::make_unique<System>(MachineConfig::Ppc604(133),
                                   OptimizationConfig::AllOptimizations());
  }
  System on(MachineConfig::Ppc604(133), OptimizationConfig::AllOptimizations());
  for (System* sys : {off.get(), &on}) {
    Kernel& kernel = sys->kernel();
    const TaskId t = kernel.CreateTask("t");
    kernel.Exec(t, ExecImage{.text_pages = 2, .data_pages = 8, .stack_pages = 2});
    kernel.SwitchTo(t);
    kernel.UserTouchRun(EffAddr(kUserDataBase), 64, 2 * (kPageSize / 64), AccessKind::kStore);
  }
  EXPECT_EQ(off->mmu().span_accesses(), 0u);
  EXPECT_GT(on.mmu().span_accesses(), 0u);
  ExpectCountersIdentical(off->counters(), on.counters());
}

}  // namespace
}  // namespace ppcmm
