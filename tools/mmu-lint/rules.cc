#include "tools/mmu-lint/rules.h"

namespace mmulint {

const std::vector<Layer>& Layers() {
  static const std::vector<Layer> kLayers = {
      {"src/sim/", 1},       // machine substrate: clocks, caches, counters, RNG
      {"src/mmu/", 2},       // PowerPC translation hardware model
      {"src/pagetable/", 2},  // Linux PTE tree (peer of mmu — neither may see the other)
      {"src/kernel/", 3},    // software: tasks, VM, flush policy, page cache
      {"src/core/", 4},      // composition root / facade (System wires everything below)
      {"src/obs/", 5},       // observability: exporters may read core, never the reverse
      {"src/workloads/", 6},  // benchmark drivers on top of the facade
      {"src/verify/", 7},    // oracles and auditors see the whole stack; nothing sees them
  };
  return kLayers;
}

const std::vector<ClosureRule>& ClosureRules() {
  static const std::vector<ClosureRule> kRules = {
      {"LAYER-ORACLE-002",
       {"src/verify/fuzz/reference_mmu.h", "src/verify/fuzz/reference_mmu.cc",
        "src/verify/fuzz/reference_tlb.h", "src/verify/fuzz/reference_cache.h",
        "src/verify/fuzz/reference_vma.h", "src/verify/fuzz/op_stream.h",
        "src/verify/fuzz/op_stream.cc"},
       {"src/mmu/", "src/kernel/", "src/pagetable/"},
       "the differential-fuzz oracle must stay independent of the implementation it checks"},
      {"LAYER-HOT-OBS-003",
       {"src/sim/machine.h", "src/sim/cache.h", "src/sim/memory.h", "src/mmu/tlb.h",
        "src/mmu/mmu.h", "src/mmu/hash_table.h", "src/mmu/bat.h", "src/mmu/segment_regs.h"},
       {"src/obs/"},
       "hot-path headers must not pull observability code into every translation unit"},
  };
  return kRules;
}

const std::vector<BannedIdent>& DeterminismBans() {
  static const std::vector<BannedIdent> kBans = {
      {"DET-RAND-010", "rand", "libc rand() is seeded per-process",
       "draw from the owning component's ppcmm::Rng instead"},
      {"DET-RAND-010", "srand", "libc PRNG seeding bypasses the simulator's seed plumbing",
       "seed a ppcmm::Rng explicitly instead"},
      {"DET-RAND-010", "random_device", "std::random_device is nondeterministic by design",
       "derive a seed from the run's configured seed instead"},
      {"DET-RAND-010", "mt19937", "host-library PRNGs are not part of simulated state",
       "use ppcmm::Rng (src/sim/rng.h)"},
      {"DET-RAND-010", "mt19937_64", "host-library PRNGs are not part of simulated state",
       "use ppcmm::Rng (src/sim/rng.h)"},
      {"DET-RAND-010", "default_random_engine", "engine choice varies across standard libraries",
       "use ppcmm::Rng (src/sim/rng.h)"},
      {"DET-RAND-010", "drand48", "libc PRNG state is process-global",
       "use ppcmm::Rng (src/sim/rng.h)"},
      {"DET-TIME-011", "system_clock", "wall-clock reads make runs unrepeatable",
       "use the simulated cycle counter (Machine::counters().cycles)"},
      {"DET-TIME-011", "steady_clock", "host time must not leak into simulated state",
       "use the simulated cycle counter (Machine::counters().cycles)"},
      {"DET-TIME-011", "high_resolution_clock", "host time must not leak into simulated state",
       "use the simulated cycle counter (Machine::counters().cycles)"},
      {"DET-TIME-011", "gettimeofday", "host time must not leak into simulated state",
       "use the simulated cycle counter (Machine::counters().cycles)"},
      {"DET-TIME-011", "clock_gettime", "host time must not leak into simulated state",
       "use the simulated cycle counter (Machine::counters().cycles)"},
      {"DET-TIME-011", "timespec_get", "host time must not leak into simulated state",
       "use the simulated cycle counter (Machine::counters().cycles)"},
      {"DET-THREAD-013", "thread", "host threads interleave in host order",
       "run kernel calls to completion on the caller's stack; parallel sweeps go through "
       "SweepRunner (src/sim/sweep_runner.h)"},
      {"DET-THREAD-013", "mutex", "a lock is only needed where host threads share state",
       "keep Machine state thread-confined; parallel sweeps go through SweepRunner"},
      {"DET-THREAD-013", "condition_variable",
       "a parked host thread is a call stack suspended mid-operation",
       "run kernel calls to completion on the caller's stack; parallel sweeps go through "
       "SweepRunner"},
  };
  return kBans;
}

const std::vector<std::string>& DeterminismScope() {
  static const std::vector<std::string> kScope = {"src/"};
  return kScope;
}

const std::vector<std::string>& DeterminismAllowlist() {
  static const std::vector<std::string> kAllow = {
      "src/sim/rng.h",  // the one sanctioned randomness source (seeded, splittable)
  };
  return kAllow;
}

const std::vector<RuleExemption>& DeterminismRuleExemptions() {
  static const std::vector<RuleExemption> kExempt = {
      // The sweep pool: one System per work item, so no simulated state is shared.
      {"DET-THREAD-013", "src/sim/sweep_runner.h"},
      {"DET-THREAD-013", "src/sim/sweep_runner.cc"},
  };
  return kExempt;
}

const std::vector<HotFunction>& HotFunctions() {
  // banned_virtual lists the PteBackingSource entry points that may NOT be reached from the
  // body. The pure-translation tier (TLB/cache lookups) must never touch the PTE tree; the
  // reload tier (Mmu::Reload / SoftwareRefill) exists to walk it, and Mmu::Access's deferred
  // C-bit path legitimately calls MarkPteDirty, so only WalkPte is banned there.
  static const std::vector<HotFunction> kHot = {
      {"src/sim/machine.h", "Machine", "TouchData", {"WalkPte", "MarkPteDirty"}},
      {"src/sim/machine.h", "Machine", "TouchDataRun", {"WalkPte", "MarkPteDirty"}},
      {"src/sim/machine.h", "Machine", "TouchInstruction", {"WalkPte", "MarkPteDirty"}},
      {"src/sim/machine.h", "Machine", "TouchInstructionRun", {"WalkPte", "MarkPteDirty"}},
      {"src/sim/machine.h", "Machine", "TouchInstructionRepeat", {"WalkPte", "MarkPteDirty"}},
      {"src/sim/machine.h", "Machine", "TouchDataPairRun", {"WalkPte", "MarkPteDirty"}},
      {"src/sim/cache.h", "Cache", "Access", {"WalkPte", "MarkPteDirty"}},
      {"src/sim/cache.h", "Cache", "AccessLineRun", {"WalkPte", "MarkPteDirty"}},
      {"src/sim/cache.h", "Cache", "TouchLine", {"WalkPte", "MarkPteDirty"}},
      {"src/sim/cache.h", "Cache", "AccessUncached", {"WalkPte", "MarkPteDirty"}},
      {"src/sim/cache.h", "Cache", "AccessUncachedRun", {"WalkPte", "MarkPteDirty"}},
      {"src/sim/cache.h", "Cache", "SweepLines", {"WalkPte", "MarkPteDirty"}},
      {"src/sim/cache.h", "Cache", "SweepLinePairs", {"WalkPte", "MarkPteDirty"}},
      {"src/sim/cache.cc", "Cache", "SweepSets", {"WalkPte", "MarkPteDirty"}},
      {"src/mmu/tlb.h", "Tlb", "LookupPtr", {"WalkPte", "MarkPteDirty"}},
      {"src/mmu/tlb.h", "Tlb", "ProbePtr", {"WalkPte", "MarkPteDirty"}},
      {"src/mmu/tlb.h", "Tlb", "TouchLruRun", {"WalkPte", "MarkPteDirty"}},
      {"src/mmu/hash_table.cc", "HashTable", "Search", {"WalkPte", "MarkPteDirty"}},
      {"src/mmu/hash_table.cc", "HashTable", "ProbePair", {"WalkPte", "MarkPteDirty"}},
      {"src/mmu/mmu.cc", "Mmu", "Access", {"WalkPte"}},
      {"src/mmu/mmu.cc", "Mmu", "AccessRun", {"WalkPte"}},
      {"src/mmu/mmu.cc", "Mmu", "ReplaySpan", {"WalkPte", "MarkPteDirty"}},
      {"src/mmu/mmu.cc", "Mmu", "Reload", {}},
      {"src/mmu/mmu.cc", "Mmu", "SoftwareRefill", {}},
      {"src/mmu/mmu.cc", "Mmu", "InstallTlbEntry", {"WalkPte", "MarkPteDirty"}},
  };
  return kHot;
}

const std::vector<HotFunction>& SpanValidityFunctions() {
  // The places a translation span is judged valid: the shared replay gate ReplaySpan and
  // its caller AccessRun. banned_virtual is unused here (the PTE-tree bans live in the
  // HotFunctions() entries).
  static const std::vector<HotFunction> kSpan = {
      {"src/mmu/mmu.cc", "Mmu", "AccessRun", {}},
      {"src/mmu/mmu.cc", "Mmu", "ReplaySpan", {}},
  };
  return kSpan;
}

const std::vector<BannedIdent>& SpanValidityBans() {
  static const std::vector<BannedIdent> kBans = {
      {"SPAN-GEN-027", "reinterpret_cast", "pointer identity laundered into span validity",
       "validity comes from a side-effect-free lookup, never from addresses"},
      {"SPAN-GEN-027", "uintptr_t", "pointer identity laundered into span validity",
       "validity comes from a side-effect-free lookup, never from addresses"},
      {"SPAN-GEN-027", "intptr_t", "pointer identity laundered into span validity",
       "validity comes from a side-effect-free lookup, never from addresses"},
      {"SPAN-GEN-027", "system_clock", "wall-clock time in span validity",
       "validity comes from a side-effect-free lookup, not time"},
      {"SPAN-GEN-027", "steady_clock", "wall-clock time in span validity",
       "validity comes from a side-effect-free lookup, not time"},
      {"SPAN-GEN-027", "high_resolution_clock", "wall-clock time in span validity",
       "validity comes from a side-effect-free lookup, not time"},
      {"SPAN-GEN-027", "clock_gettime", "wall-clock time in span validity",
       "validity comes from a side-effect-free lookup, not time"},
      {"SPAN-GEN-027", "gettimeofday", "wall-clock time in span validity",
       "validity comes from a side-effect-free lookup, not time"},
      {"SPAN-GEN-027", "timespec_get", "wall-clock time in span validity",
       "validity comes from a side-effect-free lookup, not time"},
  };
  return kBans;
}

const std::vector<BannedIdent>& HotPathBans() {
  static const std::vector<BannedIdent> kBans = {
      {"HOT-ALLOC-020", "new", "allocation on the translation fast path",
       "preallocate in the owning component's constructor"},
      {"HOT-ALLOC-020", "malloc", "allocation on the translation fast path",
       "preallocate in the owning component's constructor"},
      {"HOT-ALLOC-020", "calloc", "allocation on the translation fast path",
       "preallocate in the owning component's constructor"},
      {"HOT-ALLOC-020", "realloc", "allocation on the translation fast path",
       "preallocate in the owning component's constructor"},
      {"HOT-ALLOC-020", "make_unique", "allocation on the translation fast path",
       "preallocate in the owning component's constructor"},
      {"HOT-ALLOC-020", "make_shared", "allocation on the translation fast path",
       "preallocate in the owning component's constructor"},
      {"HOT-ALLOC-020", "push_back", "possible reallocation on the translation fast path",
       "size the container up front and index into it"},
      {"HOT-ALLOC-020", "emplace_back", "possible reallocation on the translation fast path",
       "size the container up front and index into it"},
      {"HOT-THROW-021", "throw", "exceptions on the fast path defeat the three-load budget",
       "report failure through the return value (std::optional / AccessResult)"},
      {"HOT-LOCK-022", "mutex",
       "the simulator is single-threaded per Machine; locks here are a design error",
       "keep Machine state thread-confined (SweepRunner gives each task its own System)"},
      {"HOT-LOCK-022", "lock_guard",
       "the simulator is single-threaded per Machine; locks here are a design error",
       "keep Machine state thread-confined"},
      {"HOT-LOCK-022", "unique_lock",
       "the simulator is single-threaded per Machine; locks here are a design error",
       "keep Machine state thread-confined"},
      {"HOT-LOCK-022", "scoped_lock",
       "the simulator is single-threaded per Machine; locks here are a design error",
       "keep Machine state thread-confined"},
      {"HOT-IO-023", "cout", "stream I/O on the fast path",
       "record into HwCounters/CycleLedger and export after the run"},
      {"HOT-IO-023", "cerr", "stream I/O on the fast path",
       "record into HwCounters/CycleLedger and export after the run"},
      {"HOT-IO-023", "printf", "stream I/O on the fast path",
       "record into HwCounters/CycleLedger and export after the run"},
      {"HOT-IO-023", "fprintf", "stream I/O on the fast path",
       "record into HwCounters/CycleLedger and export after the run"},
      {"HOT-IO-023", "ostringstream", "string formatting on the fast path",
       "record into HwCounters/CycleLedger and export after the run"},
      {"HOT-IO-023", "stringstream", "string formatting on the fast path",
       "record into HwCounters/CycleLedger and export after the run"},
  };
  return kBans;
}

const std::vector<std::string>& AttrCleanHeaders() {
  // The LAYER-HOT-OBS-003 root set minus src/sim/machine.h: machine.h is the sanctioned
  // owner of the CycleLedger and the CycleScope hook, every other hot header must stay
  // attribution-free so that disabling the ledger provably compiles to nothing there.
  static const std::vector<std::string> kHeaders = {
      "src/sim/cache.h", "src/sim/memory.h",     "src/mmu/tlb.h",          "src/mmu/mmu.h",
      "src/mmu/bat.h",   "src/mmu/hash_table.h", "src/mmu/segment_regs.h",
  };
  return kHeaders;
}

const std::vector<BannedIdent>& AttrBans() {
  static const std::vector<BannedIdent> kBans = {
      {"HOT-ATTR-026", "attr", "direct cycle-ledger access in a hot header",
       "open a CycleScope (src/sim/machine.h) at the call site instead"},
      {"HOT-ATTR-026", "CycleLedger", "a hot header must not hold ledger state",
       "the one ledger lives in Machine; charge through CycleScope"},
      {"HOT-ATTR-026", "MetricsRegistry", "metrics aggregation from a hot header",
       "MetricsRegistry reads whole-System state after the run (src/obs/metrics.h)"},
      {"HOT-ATTR-026", "BenchReport", "bench reporting from a hot header",
       "feed BenchReport from the bench driver, not from simulation code"},
  };
  return kBans;
}

const std::vector<BannedIdent>& SmpIpiBans() {
  static const std::vector<BannedIdent> kBans = {
      {"SMP-IPI-028", "ShootdownInvalidatePage",
       "direct cross-CPU TLB mutation outside the IPI shootdown path — no IPI is sent, no "
       "cycles are charged, and the shootdown counters stay silent",
       "route the invalidation through FlushEngine (src/kernel/flush.cc), which pays the "
       "IPI cost and handles idle CPUs via the deferred-flush protocol"},
      {"SMP-IPI-028", "ShootdownInvalidateAll",
       "direct cross-CPU TLB mutation outside the IPI shootdown path — no IPI is sent, no "
       "cycles are charged, and the shootdown counters stay silent",
       "route the invalidation through FlushEngine (src/kernel/flush.cc), which pays the "
       "IPI cost and handles idle CPUs via the deferred-flush protocol"},
  };
  return kBans;
}

const std::vector<std::string>& SmpIpiAllowlist() {
  static const std::vector<std::string> kAllow = {
      "src/mmu/mmu.h",        // defines the shootdown landing pads
      "src/mmu/mmu.cc",       // may hold their out-of-line bodies
      "src/kernel/flush.cc",  // the IPI protocol: the only sanctioned caller
  };
  return kAllow;
}

const std::vector<ReceiverType>& ReceiverTypes() {
  // Member/variable names whose class is fixed by convention across the tree. The builder
  // falls back to `Class&`/`Class*` parameter and local-declaration inference for names
  // not listed here; an unknown receiver produces no edge at all.
  static const std::vector<ReceiverType> kReceivers = {
      {"machine_", "Machine"},
      {"machine", "Machine"},
      {"mmu_", "Mmu"},
      {"htab_", "HashTable"},
      {"htab", "HashTable"},
      {"itlb", "Tlb"},
      {"dtlb", "Tlb"},
      {"tlb", "Tlb"},
      {"ibats_", "BatArray"},
      {"dbats_", "BatArray"},
      {"bats", "BatArray"},
      {"segments", "SegmentRegs"},
      {"backing_", "PteBackingSource"},
      {"page_table", "PageTable"},
      {"kernel_page_table_", "PageTable"},
      {"table", "PageTable"},
      {"mem_", "MemManager"},
      {"page_cache_", "PageCache"},
      {"flusher_", "FlushEngine"},
      {"vsids_", "VsidSpace"},
      {"allocator_", "PageAllocator"},
  };
  return kReceivers;
}

const std::vector<ReceiverType>& MethodReturnTypes() {
  // Accessor methods whose return type anchors a chained call: `mmu_->htab().Insert(...)`.
  static const std::vector<ReceiverType> kMethods = {
      {"machine", "Machine"},   {"mmu", "Mmu"},
      {"htab", "HashTable"},    {"segments", "SegmentRegs"},
      {"itlb", "Tlb"},          {"dtlb", "Tlb"},
      {"counters", "HwCounters"}, {"memory", "PhysicalMemory"},
      {"allocator", "PageAllocator"}, {"task", "Task"},
      {"mem", "MemManager"},    {"page_cache", "PageCache"},
      {"flusher", "FlushEngine"}, {"vsids", "VsidSpace"},
  };
  return kMethods;
}

const std::vector<FlushMutator>& FlushMutators() {
  // PageTable::Map is deliberately absent: mapping a previously-invalid page cannot leave
  // a stale positive translation in any TLB (the paper's invariant concerns entries that
  // were visible). HashTable::MarkChanged only sets the C bit, which is a strengthening
  // write the TLBs already agree with. The segment registers are absent too: TLB entries
  // are tagged by VSID, so rewriting a register cannot make a stale entry reachable, and
  // translation spans re-read the registers on every lookup.
  static const std::vector<FlushMutator> kMutators = {
      {"PageTable::Update", "the PTE tree",
       "pair the PTE write with FlushEngine::FlushPage/FlushRange (src/kernel/flush.cc), "
       "which runs tlbie plus the IPI shootdown round"},
      {"PageTable::Unmap", "the PTE tree",
       "pair the PTE write with FlushEngine::FlushPage/FlushRange (src/kernel/flush.cc), "
       "which runs tlbie plus the IPI shootdown round"},
      {"HashTable::Insert", "the HTAB",
       "invalidate the displaced translation via Mmu::TlbInvalidatePage (tlbie) or route "
       "the update through FlushEngine (src/kernel/flush.cc)"},
  };
  return kMutators;
}

const std::vector<std::string>& FlushPrimitives() {
  // HashTable::InvalidatePage / InvalidatePteg are intentionally NOT primitives: evicting
  // the PTE from the HTAB leaves the TLB copy live — only a tlbie (TlbInvalidate*), the
  // IPI shootdown path, or VSID retirement (stale entries become architecturally
  // unreachable) actually restores coherence.
  static const std::vector<std::string> kPrimitives = {
      "Mmu::TlbInvalidatePage",       "Mmu::TlbInvalidateAll",
      "Mmu::ShootdownInvalidatePage", "Mmu::ShootdownInvalidateAll",
      "FlushEngine::FlushPage",       "FlushEngine::FlushRange",
      "FlushEngine::FlushPages",      "FlushEngine::FlushContext",
      "FlushEngine::RetireContext",   "FlushEngine::ShootdownRound",
      "FlushEngine::RunDeferredFlush", "FlushEngine::RolloverInvalidateAll",
      "VsidSpace::Retire",
  };
  return kPrimitives;
}

const std::vector<ClosureBoundary>& HotClosureBoundaries() {
  static const std::vector<ClosureBoundary> kBoundaries = {
      // No entries yet: the whole reachable closure currently passes the purity bans.
      // Add an entry only with an audit note explaining why the descent may stop there.
  };
  return kBoundaries;
}

const std::vector<SmpConfinedToken>& SmpConfinedTokens() {
  static const std::vector<SmpConfinedToken> kTokens = {
      {"AddCyclesOn", false},   // charges another CPU's local clock
      {"SetCurrentCpu", false}, // moves the serialized spotlight
      {"banks_", false},        // the raw per-CPU bank vector
      {"itlb", true},           // itlb(cpu): another CPU's TLB; itlb() is the spotlight view
      {"dtlb", true},
      {"segments", true},
  };
  return kTokens;
}

const std::vector<std::string>& SmpGateways() {
  static const std::vector<std::string> kGateways = {
      "Kernel::SwitchCpu",              // the spotlight switch itself
      "Kernel::HandleVsidRollover",     // rollover reloads every CPU's segment bank
      "Kernel::SetupKernelTranslation", // boot: kernel segments installed on every CPU
      "Kernel::ForEachLiveTranslation", // whole-machine sweep reads every bank (read-only)
      "FlushEngine::ShootdownRound",    // the IPI protocol: charges remote clocks
      "FlushEngine::RunDeferredFlush",  // deferred tlbia when an idle-skipped CPU wakes
      "FlushEngine::RolloverInvalidateAll",  // rollover's cross-CPU invalidate + charge
  };
  return kGateways;
}

const std::vector<std::string>& SmpConfineExemptFiles() {
  static const std::vector<std::string> kExempt = {
      "src/sim/machine.h",  // defines AddCyclesOn/SetCurrentCpu and the per-CPU clocks
      "src/sim/attr.h",     // the ledger's own per-CPU spotlight hook
      "src/mmu/mmu.h",      // defines banks_ and the per-CPU accessors
      "src/mmu/mmu.cc",     // out-of-line bodies of the same
  };
  return kExempt;
}

const std::vector<std::string>& KernelEntryPoints() {
  // The kernel's public surface: everything a workload, bench, or test can call. Ambient
  // (unattributed = user) time flows in from here; ATTR-COVER-032 walks the graph from
  // these roots and every AddCycles site reached without crossing a CycleScope fires.
  static const std::vector<std::string> kRoots = {
      "Kernel::CreateTask",    "Kernel::SwitchTo",       "Kernel::SwitchCpu",
      "Kernel::Fork",          "Kernel::Exec",           "Kernel::Exit",
      "Kernel::NullSyscall",   "Kernel::Mmap",           "Kernel::Munmap",
      "Kernel::MapFramebuffer", "Kernel::SetFramebufferBat",
      "Kernel::FileRead",      "Kernel::FileWrite",      "Kernel::ShmCreate",
      "Kernel::ShmAttach",     "Kernel::ShmDetach",      "Kernel::ShmDestroy",
      "Kernel::CreatePipe",    "Kernel::PipeWrite",      "Kernel::PipeRead",
      "Kernel::UserTouch",     "Kernel::UserTouchRun",   "Kernel::UserTouchRange",
      "Kernel::UserExecute",   "Kernel::RunIdle",        "Kernel::HandlePageFault",
      "Kernel::HandleCowFault", "Kernel::HandleVsidRollover", "Kernel::InjectZombieFlood",
  };
  return kRoots;
}

const std::vector<std::string>& SysGaugeNames() {
  static const std::vector<std::string> kNames = {
      "htab_utilization", "htab_valid",           "htab_live",
      "htab_zombies",     "htab_hit_rate",        "evict_to_reload_ratio",
      "dtlb_miss_rate",   "itlb_miss_rate",       "tlb_kernel_share",
  };
  return kNames;
}

std::vector<std::pair<std::string, std::string>> ListRules() {
  return {
      {"LAYER-DAG-001", "includes must point down the layer DAG (sim < mmu|pagetable < kernel "
                        "< core < obs < workloads < verify; peers never include peers)"},
      {"LAYER-ORACLE-002", "fuzz-oracle include closure must not reach src/mmu/, src/kernel/, "
                           "or src/pagetable/"},
      {"LAYER-HOT-OBS-003", "hot-path header include closure must not reach src/obs/"},
      {"DET-RAND-010", "no host PRNG in simulated state (use src/sim/rng.h)"},
      {"DET-TIME-011", "no wall-clock reads in simulated state (use the cycle counter)"},
      {"DET-ITER-012", "no iteration over unordered containers in simulated state"},
      {"DET-THREAD-013", "no host threads, mutexes or condition variables in src/ outside the "
                         "sweep pool (src/sim/sweep_runner.{h,cc})"},
      {"HOT-ALLOC-020", "no allocation in hot-path function bodies"},
      {"HOT-THROW-021", "no throw in hot-path function bodies"},
      {"HOT-LOCK-022", "no locks in hot-path function bodies"},
      {"HOT-IO-023", "no stream I/O or string formatting in hot-path function bodies"},
      {"HOT-VIRT-024", "no PTE-tree virtual dispatch from pure-translation-tier bodies"},
      {"HOT-MISSING-025", "every registered hot function must still exist where the rule "
                          "table says it does"},
      {"HOT-ATTR-026", "no direct MetricsRegistry/BenchReport/cycle-ledger access in hot "
                       "headers; attribution goes through CycleScope only"},
      {"SPAN-GEN-027", "translation-span validity comes from a side-effect-free lookup — "
                       "no wall-clock reads or pointer-identity laundering in the "
                       "registered span-validity bodies"},
      {"SMP-IPI-028", "no direct cross-CPU TLB mutation (Mmu::ShootdownInvalidate*) outside "
                      "the IPI shootdown path in src/kernel/flush.cc"},
      {"FLUSH-CONTRACT-029", "every HTAB/PTE/segment mutation must reach a flush primitive "
                             "(tlbie/tlbia, the IPI shootdown path, or VSID retirement) on "
                             "the call graph, or carry a mmu-lint-deferred-flush annotation"},
      {"HOT-CLOSURE-030", "purity bans (no alloc/throw/lock/stream-IO) hold on the whole "
                          "call-graph closure reachable from the registered hot roots, not "
                          "just the roots themselves"},
      {"SMP-CONFINE-031", "per-CPU state (banks_, itlb(cpu)/dtlb(cpu)/segments(cpu), "
                          "AddCyclesOn, SetCurrentCpu) only inside the spotlight-switch and "
                          "shootdown gateway functions"},
      {"ATTR-COVER-032", "every Machine::AddCycles/AddCyclesOn site in src/kernel must be "
                         "dominated by a CycleScope on every call-graph path from the "
                         "kernel entry points (or carry a mmu-lint-ambient annotation)"},
      {"CNT-REF-030", "every hw.<name> reference must name a real HwCounters X-macro field"},
      {"CNT-FOREACH-031", "MetricsRegistry must publish hw counters via ForEachField, not a "
                          "hand-maintained list"},
      {"CNT-LAT-032", "every lat.<cause>.<stat> reference must name a real cause and stat"},
      {"CNT-XMACRO-033", "the HwCounters X-macro lists must parse and be non-empty"},
      {"CNT-SYS-034", "sys.<name> gauges in metrics.cc and the rule table must agree, and "
                      "references must name one of them"},
  };
}

bool RuleEnabled(const LintConfig& config, const std::string& rule_id) {
  if (config.rule_prefixes.empty()) {
    return true;
  }
  for (const std::string& p : config.rule_prefixes) {
    if (rule_id.compare(0, p.size(), p) == 0) {
      return true;
    }
  }
  return false;
}

void Emit(const SourceFile& sf, uint32_t line, const std::string& rule, const std::string& message,
          const std::string& fix, std::vector<Diagnostic>* out) {
  if (sf.Suppressed(line, rule)) {
    return;
  }
  out->push_back({sf.path, line, rule, message, fix});
}

}  // namespace mmulint
