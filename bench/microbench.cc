// Google-benchmark microbenchmarks over the primitive operations the paper's cost model is
// built from: TLB reloads by strategy, HTAB search/insert, per-page and lazy flushes,
// syscalls and context switches. These measure *simulated* cycles per operation as well as
// host throughput of the simulator itself; the cache sweep cases report host time per line.

#include <benchmark/benchmark.h>

#include <string>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/sim/rng.h"

namespace ppcmm {
namespace {

std::unique_ptr<System> NewSystem(ReloadStrategy strategy, bool optimized) {
  OptimizationConfig config = OptimizationConfig::AllOptimizations();
  config.optimized_handlers = optimized;
  config.no_htab_direct_reload = strategy == ReloadStrategy::kSoftwareDirect;
  const MachineConfig machine = strategy == ReloadStrategy::kHardwareHtabWalk
                                    ? MachineConfig::Ppc604(185)
                                    : MachineConfig::Ppc603(180);
  return std::make_unique<System>(machine, config);
}

// Every case reports the same two counters, so every output format works (Google
// Benchmark's CSV reporter takes its columns from the first case it prints and aborts on a
// counter it has not seen):
//   sim_cycles_per_op  simulated cycles per iteration (0 where the case charges none);
//   unit               host time per unit of work, printed with an "n" suffix for
//                      nanoseconds: per iteration, unless the case's label names its unit
//                      (a cache line for the sweeps, an access for the short runs).
void Report(benchmark::State& state, uint64_t sim_cycles, uint64_t units) {
  state.counters["sim_cycles_per_op"] = benchmark::Counter(
      static_cast<double>(sim_cycles) / static_cast<double>(state.iterations()));
  state.counters["unit"] = benchmark::Counter(
      static_cast<double>(units), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void ReportPerOp(benchmark::State& state, uint64_t sim_cycles) {
  Report(state, sim_cycles, static_cast<uint64_t>(state.iterations()));
}

TaskId Spawn(Kernel& kernel) {
  const TaskId id = kernel.CreateTask("bench");
  kernel.Exec(id, ExecImage{.text_pages = 8, .data_pages = 256, .stack_pages = 4});
  kernel.SwitchTo(id);
  return id;
}

// One TLB miss + reload per iteration: a strided walk wider than the DTLB.
void BM_TlbReload(benchmark::State& state) {
  const auto strategy = static_cast<ReloadStrategy>(state.range(0));
  auto system = NewSystem(strategy, /*optimized=*/true);
  Kernel& kernel = system->kernel();
  Spawn(kernel);
  for (uint32_t p = 0; p < 200; ++p) {
    kernel.UserTouch(EffAddr(kUserDataBase + p * kPageSize), AccessKind::kStore);
  }
  const uint64_t cycles0 = system->counters().cycles;
  const uint64_t misses0 = system->counters().dtlb_misses;
  uint32_t page = 0;
  for (auto _ : state) {
    kernel.UserTouch(EffAddr(kUserDataBase + page * kPageSize), AccessKind::kLoad);
    page = (page + 1) % 200;
  }
  const uint64_t misses = system->counters().dtlb_misses - misses0;
  ReportPerOp(state, system->counters().cycles - cycles0);
  const double miss_rate = static_cast<double>(misses) / static_cast<double>(state.iterations());
  state.SetLabel("dtlb misses/op " + std::to_string(miss_rate));
}
BENCHMARK(BM_TlbReload)
    ->Arg(static_cast<int>(ReloadStrategy::kHardwareHtabWalk))
    ->Arg(static_cast<int>(ReloadStrategy::kSoftwareHtab))
    ->Arg(static_cast<int>(ReloadStrategy::kSoftwareDirect));

void BM_NullSyscall(benchmark::State& state) {
  auto system = NewSystem(ReloadStrategy::kHardwareHtabWalk, state.range(0) != 0);
  Kernel& kernel = system->kernel();
  Spawn(kernel);
  kernel.NullSyscall();
  const uint64_t cycles0 = system->counters().cycles;
  for (auto _ : state) {
    kernel.NullSyscall();
  }
  ReportPerOp(state, system->counters().cycles - cycles0);
}
BENCHMARK(BM_NullSyscall)->Arg(0)->Arg(1);  // 0 = C handlers, 1 = optimized

void BM_ContextSwitch(benchmark::State& state) {
  auto system = NewSystem(ReloadStrategy::kHardwareHtabWalk, /*optimized=*/true);
  Kernel& kernel = system->kernel();
  const TaskId a = Spawn(kernel);
  const TaskId b = Spawn(kernel);
  const uint64_t cycles0 = system->counters().cycles;
  bool flip = false;
  for (auto _ : state) {
    kernel.SwitchTo(flip ? a : b);
    flip = !flip;
  }
  ReportPerOp(state, system->counters().cycles - cycles0);
}
BENCHMARK(BM_ContextSwitch);

void BM_EagerPageFlush(benchmark::State& state) {
  auto system = NewSystem(ReloadStrategy::kHardwareHtabWalk, /*optimized=*/true);
  Kernel& kernel = system->kernel();
  const TaskId t = Spawn(kernel);
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);
  Task& task = kernel.task(t);
  const uint64_t cycles0 = system->counters().cycles;
  for (auto _ : state) {
    kernel.flusher().FlushPage(*task.mm, EffAddr(kUserDataBase));
  }
  ReportPerOp(state, system->counters().cycles - cycles0);
}
BENCHMARK(BM_EagerPageFlush);

void BM_LazyContextFlush(benchmark::State& state) {
  auto system = NewSystem(ReloadStrategy::kHardwareHtabWalk, /*optimized=*/true);
  Kernel& kernel = system->kernel();
  const TaskId t = Spawn(kernel);
  Task& task = kernel.task(t);
  const uint64_t cycles0 = system->counters().cycles;
  for (auto _ : state) {
    kernel.flusher().FlushContext(*task.mm, /*mm_is_current=*/true);
  }
  ReportPerOp(state, system->counters().cycles - cycles0);
}
BENCHMARK(BM_LazyContextFlush);

void BM_HtabSearchHit(benchmark::State& state) {
  Machine machine(MachineConfig::Ppc604(185));
  HashTable htab(2048, PhysAddr(kHtabPhysBase));
  AllLiveVsidOracle oracle;
  NullMemCharger charger;
  const HashedPte pte{.valid = true, .vsid = Vsid(0x42), .page_index = 0x7, .rpn = 0x100,
                      .cache_inhibited = false, .writable = true, .referenced = false,
                      .changed = false};
  htab.Insert(pte, oracle, charger);
  for (auto _ : state) {
    benchmark::DoNotOptimize(htab.Search(pte.virt_page(), charger));
  }
  ReportPerOp(state, 0);
}
BENCHMARK(BM_HtabSearchHit);

void BM_HtabSearchMiss(benchmark::State& state) {
  HashTable htab(2048, PhysAddr(kHtabPhysBase));
  NullMemCharger charger;
  const VirtPage vp{.vsid = Vsid(0x9999), .page_index = 0x33};
  for (auto _ : state) {
    benchmark::DoNotOptimize(htab.Search(vp, charger));
  }
  ReportPerOp(state, 0);
}
BENCHMARK(BM_HtabSearchMiss);

void BM_PageFault(benchmark::State& state) {
  auto system = NewSystem(ReloadStrategy::kHardwareHtabWalk, /*optimized=*/true);
  Kernel& kernel = system->kernel();
  Spawn(kernel);
  const uint32_t start = kernel.Mmap(4096);
  uint32_t page = 0;
  const uint64_t cycles0 = system->counters().cycles;
  for (auto _ : state) {
    kernel.UserTouch(EffAddr::FromPage(start + page), AccessKind::kStore);
    ++page;
    if (page == 4000) {  // recycle the address space before RAM runs out
      state.PauseTiming();
      kernel.Munmap(start, 4096);
      kernel.Mmap(4096, MmapOptions{.fixed_page = start});
      page = 0;
      state.ResumeTiming();
    }
  }
  ReportPerOp(state, system->counters().cycles - cycles0);
}
BENCHMARK(BM_PageFault);

void BM_DirtyBitTrap(benchmark::State& state) {
  // Deferred C-bit maintenance: one first-store trap per iteration.
  OptimizationConfig config = OptimizationConfig::Baseline();
  config.optimized_handlers = true;
  auto system = std::make_unique<System>(MachineConfig::Ppc604(185), config);
  Kernel& kernel = system->kernel();
  Spawn(kernel);
  // A pool of pages faulted in via loads (clean), re-armed by re-faulting after each sweep.
  const uint32_t start = kernel.Mmap(256, MmapOptions{.writable = true});
  for (uint32_t p = 0; p < 256; ++p) {
    kernel.UserTouch(EffAddr::FromPage(start + p), AccessKind::kLoad);
  }
  uint32_t page = 0;
  uint64_t trap_cycles = 0;  // only the stores themselves; re-arm work is excluded
  for (auto _ : state) {
    const uint64_t before = system->counters().cycles;
    kernel.UserTouch(EffAddr::FromPage(start + page), AccessKind::kStore);
    trap_cycles += system->counters().cycles - before;
    if (++page == 256) {
      state.PauseTiming();
      kernel.Munmap(start, 256);
      kernel.Mmap(256, MmapOptions{.fixed_page = start});
      for (uint32_t p = 0; p < 256; ++p) {
        kernel.UserTouch(EffAddr::FromPage(start + p), AccessKind::kLoad);
      }
      page = 0;
      state.ResumeTiming();
    }
  }
  ReportPerOp(state, trap_cycles);
}
BENCHMARK(BM_DirtyBitTrap);

void BM_Prefetch(benchmark::State& state) {
  Machine machine(MachineConfig::Ppc604(185));
  uint32_t addr = 0;
  for (auto _ : state) {
    machine.PrefetchData(PhysAddr(addr));
    addr = (addr + 32) & 0xFFFFF;
  }
  ReportPerOp(state, machine.Now().value);
}
BENCHMARK(BM_Prefetch);

// Host time per cache line of the L1 sweep kernel, as the "unit" counter. One case per
// kernel specialisation the simulator runs: all-miss read streams on the 2-way 603 and the
// 4-way 604, write sweeps over recycled frames that are partly resident in random ways,
// set-aligned page copies (two streams), and PTEG reclaim scans (whole lines with a
// per-line repeat).
void ReportPerLine(benchmark::State& state, const Machine& machine, uint64_t lines) {
  Report(state, machine.Now().value, lines);
  state.SetLabel("unit: line");
}

void BM_SweepAllMissRead603(benchmark::State& state) {
  Machine machine(MachineConfig::Ppc603(180));
  const uint32_t line = machine.config().dcache.line_bytes;
  const uint32_t lines = kPageSize / line;
  uint32_t frame = 0;
  uint64_t total = 0;
  for (auto _ : state) {
    machine.TouchDataRun(PhysAddr::FromFrame(frame), line, lines, /*is_write=*/false);
    frame = (frame + 1) % 256;  // a 1 MB stream through an 8 KB cache: every line misses
    total += lines;
  }
  ReportPerLine(state, machine, total);
}
BENCHMARK(BM_SweepAllMissRead603);

void BM_SweepRecycledWrites604(benchmark::State& state) {
  Machine machine(MachineConfig::Ppc604(185));
  constexpr uint32_t kPool = 96;
  const uint32_t line = machine.config().dcache.line_bytes;
  const uint32_t lines = kPageSize / line;
  Rng rng(static_cast<uint64_t>(state.range(0)));
  uint64_t total = 0;
  for (auto _ : state) {
    // A user read of part of one pool frame, then the zeroing of a recycled frame. Low
    // frame numbers come up far more often, so the zeroed frame is often partly resident.
    const auto user = static_cast<uint32_t>(rng.NextBelow(kPool));
    const auto first = static_cast<uint32_t>(rng.NextBelow(lines));
    const auto n = static_cast<uint32_t>(1 + rng.NextBelow(lines - first));
    machine.TouchDataRun(PhysAddr::FromFrame(user, first * line), line, n, /*is_write=*/false);
    const auto zeroed = static_cast<uint32_t>(rng.NextBelow(rng.NextBelow(kPool) + 1));
    machine.TouchDataRun(PhysAddr::FromFrame(zeroed), line, lines, /*is_write=*/true);
    total += n + lines;
  }
  ReportPerLine(state, machine, total);
}
BENCHMARK(BM_SweepRecycledWrites604)->Arg(1);  // the argument seeds the frame choice

// The all-miss read stream on the 604's 4-way L1 (16 KB): 4 MB of frames, so every line
// misses and every fill displaces a valid line.
void BM_SweepAllMissRead604(benchmark::State& state) {
  Machine machine(MachineConfig::Ppc604(185));
  const uint32_t line = machine.config().dcache.line_bytes;
  const uint32_t lines = kPageSize / line;
  uint32_t frame = 0;
  uint64_t total = 0;
  for (auto _ : state) {
    machine.TouchDataRun(PhysAddr::FromFrame(frame), line, lines, /*is_write=*/false);
    frame = (frame + 1) % 1024;
    total += lines;
  }
  ReportPerLine(state, machine, total);
}
BENCHMARK(BM_SweepAllMissRead604);

// Page copies as COW and private file faults issue them: line i of a source frame, then
// line i of a destination frame, both page-aligned so the two streams share every set.
// Sources come from a small pool that stays partly resident; destinations stream.
void BM_SweepCopyPairs604(benchmark::State& state) {
  Machine machine(MachineConfig::Ppc604(185));
  const uint32_t line = machine.config().dcache.line_bytes;
  const uint32_t lines = kPageSize / line;
  uint32_t i = 0;
  uint64_t total = 0;
  for (auto _ : state) {
    machine.TouchDataPairRun(PhysAddr::FromFrame(i % 8), /*a_write=*/false, /*a_cached=*/true,
                             PhysAddr::FromFrame(64 + i % 512), /*b_write=*/true, lines);
    ++i;
    total += 2 * lines;
  }
  ReportPerLine(state, machine, total);
}
BENCHMARK(BM_SweepCopyPairs604);

// The idle task's zombie reclaim reads as HashTable::ReclaimZombies charges them: 16 PTEGs
// of eight 8-byte PTEs, one stride-8 run of 128 reads over 32 lines (four reads per line),
// stepping through a 64 KB hash table.
void BM_PtegReclaimScan604(benchmark::State& state) {
  Machine machine(MachineConfig::Ppc604(185));
  constexpr uint32_t kHtabBase = 0x100000;
  constexpr uint32_t kPtegBytes = 64;
  constexpr uint32_t kPtegs = 16;
  const uint32_t line = machine.config().dcache.line_bytes;
  uint32_t offset = 0;
  uint64_t total = 0;
  for (auto _ : state) {
    machine.TouchDataRun(PhysAddr(kHtabBase + offset), 8, kPtegs * kPtegBytes / 8,
                         /*is_write=*/false);
    offset = (offset + kPtegs * kPtegBytes) % (64 * 1024);
    total += kPtegs * kPtegBytes / line;
  }
  ReportPerLine(state, machine, total);
}
BENCHMARK(BM_PtegReclaimScan604);

// Short runs, the shape of PTEG probes and of user runs near a page end: `n` reads at
// `stride` bytes (8, the 604's 32-byte line, or two lines) charged as one TouchDataRun
// (run=1) or as n TouchData calls (run=0), over 8 KB of the 16 KB L1 so they hit once warm.
// Host time per access, as the "unit" counter.
void BM_ShortRun604(benchmark::State& state) {
  Machine machine(MachineConfig::Ppc604(185));
  const auto n = static_cast<uint32_t>(state.range(0));
  const auto stride = static_cast<uint32_t>(state.range(1));
  const bool run = state.range(2) != 0;
  uint32_t offset = 0;
  uint64_t total = 0;
  for (auto _ : state) {
    const PhysAddr pa(0x10000 + offset);
    if (run) {
      machine.TouchDataRun(pa, stride, n, /*is_write=*/false);
    } else {
      for (uint32_t i = 0; i < n; ++i) {
        machine.TouchData(pa + i * stride, /*is_write=*/false);
      }
    }
    offset = (offset + 264) % (8 * 1024);
    total += n;
  }
  Report(state, machine.Now().value, total);
  state.SetLabel("unit: access");
}
BENCHMARK(BM_ShortRun604)
    ->ArgsProduct({{1, 2, 4}, {8, 32, 64}, {0, 1}})
    ->ArgNames({"n", "stride", "run"});

void BM_PipeRoundTrip(benchmark::State& state) {
  auto system = NewSystem(ReloadStrategy::kHardwareHtabWalk, /*optimized=*/true);
  Kernel& kernel = system->kernel();
  const TaskId a = Spawn(kernel);
  const TaskId b = Spawn(kernel);
  const uint32_t pipe = kernel.CreatePipe();
  kernel.SwitchTo(a);
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);
  const uint64_t cycles0 = system->counters().cycles;
  for (auto _ : state) {
    kernel.PipeWrite(pipe, EffAddr(kUserDataBase), 1);
    kernel.SwitchTo(b);
    kernel.PipeRead(pipe, EffAddr(kUserDataBase), 1);
    kernel.SwitchTo(a);
  }
  ReportPerOp(state, system->counters().cycles - cycles0);
}
BENCHMARK(BM_PipeRoundTrip);

void BM_ForkExit(benchmark::State& state) {
  auto system = NewSystem(ReloadStrategy::kHardwareHtabWalk, /*optimized=*/true);
  Kernel& kernel = system->kernel();
  const TaskId parent = Spawn(kernel);
  // A modest resident set so fork has PTEs to copy-protect.
  for (uint32_t p = 0; p < 24; ++p) {
    kernel.UserTouch(EffAddr(kUserDataBase + p * kPageSize), AccessKind::kStore);
  }
  const uint64_t cycles0 = system->counters().cycles;
  for (auto _ : state) {
    const TaskId child = kernel.Fork(parent);
    kernel.Exit(child);
  }
  ReportPerOp(state, system->counters().cycles - cycles0);
}
BENCHMARK(BM_ForkExit);

void BM_ShmAttachDetach(benchmark::State& state) {
  auto system = NewSystem(ReloadStrategy::kHardwareHtabWalk, /*optimized=*/true);
  Kernel& kernel = system->kernel();
  Spawn(kernel);
  const uint32_t shm = kernel.ShmCreate(16);
  const uint64_t cycles0 = system->counters().cycles;
  for (auto _ : state) {
    const uint32_t start = kernel.ShmAttach(shm);
    kernel.UserTouch(EffAddr::FromPage(start), AccessKind::kStore);
    kernel.ShmDetach(start, 16);
  }
  ReportPerOp(state, system->counters().cycles - cycles0);
}
BENCHMARK(BM_ShmAttachDetach);

}  // namespace
}  // namespace ppcmm

BENCHMARK_MAIN();
