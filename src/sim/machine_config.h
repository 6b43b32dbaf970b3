// Machine configuration: CPU model, clock, cache geometry, TLB sizes, memory system timing,
// and the interrupt/walk cost constants measured by the paper (§5).
//
// Two CPU families are modelled, matching the paper's testbed:
//   PowerPC 603 — software-reloaded TLB: a TLB miss raises an interrupt (32 cycles to invoke
//                 and return, per §5) and software refills the TLB.
//   PowerPC 604 — hardware-walked hashed page table: a TLB miss triggers a hardware HTAB
//                 search (up to ~120 cycles / 16 memory accesses, per §5); only a miss in
//                 the HTAB raises an interrupt (≥91 cycles, per §5).

#ifndef PPCMM_SRC_SIM_MACHINE_CONFIG_H_
#define PPCMM_SRC_SIM_MACHINE_CONFIG_H_

#include <cstdint>
#include <string>

namespace ppcmm {

// Which PowerPC implementation the machine models, and with it how TLB misses are
// serviced: the 603 always interrupts to a software handler; "the 604" in the paper's sense
// (which includes the 601 and 750) always has hardware search the HTAB and interrupts only
// on an HTAB miss.
enum class CpuModel {
  kPpc603,  // software TLB reload
  kPpc604,  // hardware hash-table walk
};

// Geometry of one level-1 cache.
struct CacheGeometry {
  uint32_t size_bytes = 0;
  uint32_t line_bytes = 32;
  uint32_t associativity = 4;

  uint32_t NumLines() const { return size_bytes / line_bytes; }
  uint32_t NumSets() const { return NumLines() / associativity; }
};

// Main-memory timing. The paper notes board quality mattered (the 200 MHz 604 machine had
// "significantly faster main memory and a better board design", §6.2).
struct MemoryTiming {
  uint32_t line_fill_cycles = 28;    // cycles to fill one cache line from DRAM
  uint32_t single_beat_cycles = 12;  // cycles for one cache-inhibited (uncached) access
  uint32_t writeback_cycles = 10;    // extra cycles to write back a dirty victim line
};

// Full machine description.
struct MachineConfig {
  std::string name;
  CpuModel cpu = CpuModel::kPpc604;
  uint32_t clock_mhz = 185;

  CacheGeometry icache;
  CacheGeometry dcache;

  uint32_t itlb_entries = 128;  // both CPUs' TLBs are 2-way (kTlbAssociativity)
  uint32_t dtlb_entries = 128;

  // SMP: number of simulated CPUs. Each CPU gets its own split I/D TLBs, segment
  // registers, and L1 caches; physical memory, the HTAB and the BATs are shared. 1 (the
  // default) is bit-identical to the original uniprocessor model.
  uint32_t ncpus = 1;

  MemoryTiming memory;
  uint64_t ram_bytes = 32ull * 1024 * 1024;  // the paper fixes 32 MB in every machine (§4)

  // Hashed page table geometry: 2048 PTEGs × 8 PTEs = 16384 entries (§7).
  uint32_t htab_ptegs = 2048;

  // Cost constants, in cycles, from §5 of the paper.
  uint32_t tlb_miss_interrupt_cycles = 32;   // 603: invoke + return from the miss handler
  uint32_t hash_miss_interrupt_cycles = 91;  // 604: invoke the software hash-miss handler
  uint32_t hw_walk_base_cycles = 24;         // 604: hardware walk overhead beyond memory refs

  // Named machine profiles used throughout the paper's tables.
  static MachineConfig Ppc603(uint32_t mhz);
  static MachineConfig Ppc604(uint32_t mhz);
  // The 200 MHz 604 box from Table 1: faster main memory and better board design.
  static MachineConfig Ppc604FastBoard(uint32_t mhz);

  uint32_t PageSizeBytes() const { return 4096; }
  uint64_t NumPageFrames() const { return ram_bytes / PageSizeBytes(); }
  uint32_t HtabEntries() const { return htab_ptegs * 8; }
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_SIM_MACHINE_CONFIG_H_
