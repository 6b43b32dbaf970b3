// The hardware substrate bundle: physical memory, split L1 caches, the cycle clock and the
// event counters, all configured from one MachineConfig.
//
// Everything above this layer (MMU, kernel, workloads) charges time exclusively through
// Machine, so a single place accounts for every simulated cycle.

#ifndef PPCMM_SRC_SIM_MACHINE_H_
#define PPCMM_SRC_SIM_MACHINE_H_

#include <vector>

#include "src/sim/attr.h"
#include "src/sim/cache.h"
#include "src/sim/cycle_types.h"
#include "src/sim/hw_counters.h"
#include "src/sim/machine_config.h"
#include "src/sim/memory.h"
#include "src/sim/phys_addr.h"

namespace ppcmm {

// One simulated machine instance.
class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const { return config_; }
  PhysicalMemory& memory() { return memory_; }
  const PhysicalMemory& memory() const { return memory_; }
  // The current CPU's L1 caches (CPU 0's unless SetCurrentCpu moved the spotlight).
  Cache& icache() { return *icache_cur_; }
  Cache& dcache() { return *dcache_cur_; }
  // A specific CPU's L1 caches (per-CPU verification views).
  Cache& icache(uint32_t cpu) { return cores_[cpu].icache; }
  Cache& dcache(uint32_t cpu) { return cores_[cpu].dcache; }

  // ---- SMP interleaving ----
  //
  // The machine simulates N CPUs by time-multiplexing one deterministic execution spotlight
  // over a single global cycle clock: SetCurrentCpu redirects the hot paths at CPU `cpu`'s
  // caches and stamps subsequent attribution events, it never advances the clock. Per-CPU
  // local clocks (CpuCycles) record how much of the global timeline each CPU consumed, so
  // interleaving drivers can pick the least-advanced CPU next.
  uint32_t ncpus() const { return config_.ncpus; }
  uint32_t current_cpu() const { return current_cpu_; }
  void SetCurrentCpu(uint32_t cpu) {
    current_cpu_ = cpu;
    icache_cur_ = &icache(cpu);
    dcache_cur_ = &dcache(cpu);
    cpu_cycles_cur_ = &cpu_cycles_[cpu];
    attr_.SetCurrentCpu(cpu);
  }
  // Cycles CPU `cpu` has consumed of the global timeline.
  uint64_t CpuCycles(uint32_t cpu) const { return cpu_cycles_[cpu]; }

  // Charges cycles spent by a *remote* CPU (IPI receive, remote flush handlers). The global
  // clock and the attribution ledger see them like any other cycles — the serialized
  // interleaving model has one timeline — but they land on `cpu`'s local clock.
  void AddCyclesOn(uint32_t cpu, Cycles c) {
    counters_.cycles += c.value;
    cpu_cycles_[cpu] += c.value;
    attr_.Charge(c.value);
  }
  HwCounters& counters() { return counters_; }
  const HwCounters& counters() const { return counters_; }
  // The machine's one observer: cycle attribution, per-cause latency histograms and the
  // trace ring, all behind CycleLedger::SetEnabled.
  CycleLedger& attr() { return attr_; }
  const CycleLedger& attr() const { return attr_; }

  // Adds raw execution cycles (instruction issue, interrupt overheads, handler bodies).
  // Every clock advance flows through here, so the attribution ledger sees each cycle
  // exactly once (a disabled ledger costs one predictable branch).
  void AddCycles(Cycles c) {
    counters_.cycles += c.value;
    *cpu_cycles_cur_ += c.value;
    attr_.Charge(c.value);
  }
  Cycles Now() const { return Cycles(counters_.cycles); }

  // Charges one data reference at `pa` through (or around) the data cache and advances the
  // clock. `cached=false` models a cache-inhibited (WIMG I-bit) access. Inline, as is
  // Cache::Access, so the L1 hit (the overwhelmingly common case) costs no call.
  void TouchData(PhysAddr pa, bool is_write, bool cached = true) {
    // mmu-lint-hot(HOT-CLOSURE-030): every translated data reference is charged here
    if (!cached) {
      AddCycles(dcache_cur_->Uncached(1));
      return;
    }
    AddCycles(dcache_cur_->Access(pa, is_write));
  }

  // Charges one instruction fetch at `pa` through the instruction cache.
  void TouchInstruction(PhysAddr pa, bool cached = true) {
    // mmu-lint-hot(HOT-CLOSURE-030): every translated instruction fetch is charged here
    if (!cached) {
      AddCycles(icache_cur_->Uncached(1));
      return;
    }
    AddCycles(icache_cur_->Access(pa, false));
  }

  // Charges `count` data references starting at `pa`, each `stride` bytes after the
  // previous (stride 0: the same address each time) — bit-identical to `count` TouchData
  // calls. Cache::Run splits the run into lines, and the cycles accumulate into a single
  // AddCycles (the ledger charges the same total into the same open cell); an uncached run
  // is O(1). Used by translation spans (which never cross a page), the context switch's
  // register saves, and the kernel's bulk memory work and PTEG scans (page zeroing, HTAB
  // search and reclaim), whose runs may span many pages.
  void TouchDataRun(PhysAddr pa, uint32_t stride, uint32_t count, bool is_write,
                    bool cached = true) {
    // mmu-lint-hot(HOT-CLOSURE-030): data spans and the kernel's bulk memory work
    if (!cached) {
      AddCycles(dcache_cur_->Uncached(count));
      return;
    }
    AddCycles(dcache_cur_->Run(pa, stride, count, is_write));
  }

  // Instruction-fetch variant of TouchDataRun, same contract against TouchInstruction.
  // Stride 0 serves the idle loop's chunks, whose n fetches refetch one line.
  void TouchInstructionRun(PhysAddr pa, uint32_t stride, uint32_t count, bool cached = true) {
    // mmu-lint-hot(HOT-CLOSURE-030): instruction spans and the idle loop's refetches
    if (!cached) {
      AddCycles(icache_cur_->Uncached(count));
      return;
    }
    AddCycles(icache_cur_->Run(pa, stride, count, /*is_write=*/false));
  }

  // Charges `count` line pairs — line i of `a` (uncached when `a_cached` is false), then
  // line i of `b` — bit-identical to alternating TouchData(a + i * line, a_write, a_cached)
  // and TouchData(b + i * line, b_write). The interleaving matters because both streams
  // compete for the same sets; it is one Cache::SweepLinePairs pass. Used by page copies
  // (COW, private file pages) and the user/kernel copies of pipes and files.
  void TouchDataPairRun(PhysAddr a, bool a_write, bool a_cached, PhysAddr b, bool b_write,
                        uint32_t count) {
    // mmu-lint-hot(HOT-CLOSURE-030): page copies and the pipe and file copies
    const uint32_t line = config_.dcache.line_bytes;
    if (!a_cached) {
      // An uncached access leaves no cache state behind, so the streams separate.
      TouchDataRun(a, line, count, a_write, /*cached=*/false);
      TouchDataRun(b, line, count, b_write);
      return;
    }
    AddCycles(dcache_cur_->SweepLinePairs(a, a_write, b, b_write, count));
  }

  // Issues a software data prefetch (dcbt) for the line containing `pa`.
  void PrefetchData(PhysAddr pa) { AddCycles(dcache_cur_->Prefetch(pa)); }

  // Elapsed simulated wall-clock time at this machine's clock rate.
  double ElapsedMicros() const { return CyclesToMicros(Now(), config_.clock_mhz); }
  double ElapsedSeconds() const { return CyclesToSeconds(Now(), config_.clock_mhz); }

 private:
  MachineConfig config_;
  PhysicalMemory memory_;
  // Each CPU's private L1 caches, one core per CPU, fixed at construction (the hot-path
  // cache pointers below alias into them).
  struct Core {
    explicit Core(const MachineConfig& config)
        : icache("icache", config.icache, config.memory),
          dcache("dcache", config.dcache, config.memory) {}
    Cache icache;
    Cache dcache;
  };
  std::vector<Core> cores_;
  HwCounters counters_;
  CycleLedger attr_;
  // SMP spotlight: which CPU the hot paths currently model, and its caches; at ncpus=1
  // the pointers never move off CPU 0.
  uint32_t current_cpu_ = 0;
  Cache* icache_cur_ = nullptr;
  Cache* dcache_cur_ = nullptr;
  std::vector<uint64_t> cpu_cycles_;
  uint64_t* cpu_cycles_cur_ = nullptr;
};

// RAII cause scope for the attribution ledger: cycles charged between construction and
// destruction land in the cause path formed by the enclosing scopes plus `cause`. When
// attribution is disabled both ends are a single branch, so hot paths may open scopes
// unconditionally. Rebind reclassifies a scope whose true cause is only known on the way
// out (hash-search depth, fault kind); it must run before any nested scope opens.
class CycleScope {
 public:
  CycleScope(Machine& machine, AttrCause cause)
      : machine_(machine), engaged_(machine.attr().enabled()) {
    if (engaged_) {
      start_ = machine_.Now().value;
      machine_.attr().Push(cause);
    }
  }
  ~CycleScope() {
    if (engaged_ && machine_.attr().enabled()) {
      const uint64_t now = machine_.Now().value;
      machine_.attr().Pop(now, now - start_);
    }
  }
  CycleScope(const CycleScope&) = delete;
  CycleScope& operator=(const CycleScope&) = delete;

  void Rebind(AttrCause cause) {
    if (engaged_ && machine_.attr().enabled()) {
      machine_.attr().Rebind(cause);
    }
  }

 private:
  Machine& machine_;
  bool engaged_;
  uint64_t start_ = 0;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_SIM_MACHINE_H_
