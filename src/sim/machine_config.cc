#include "src/sim/machine_config.h"

#include <string>

namespace ppcmm {

MachineConfig MachineConfig::Ppc603(uint32_t mhz) {
  MachineConfig mc;
  mc.name = "PPC603 " + std::to_string(mhz) + "MHz";
  mc.cpu = CpuModel::kPpc603;
  mc.clock_mhz = mhz;
  // 603: 8K+8K split L1, 64+64 entry split TLBs — half the 604's capacity, as the paper
  // notes ("double the size TLB and cache", §11).
  mc.icache = CacheGeometry{.size_bytes = 8 * 1024, .line_bytes = 32, .associativity = 2};
  mc.dcache = CacheGeometry{.size_bytes = 8 * 1024, .line_bytes = 32, .associativity = 2};
  mc.itlb_entries = 64;
  mc.dtlb_entries = 64;
  mc.memory = MemoryTiming{.line_fill_cycles = 30, .single_beat_cycles = 13,
                           .writeback_cycles = 11};
  mc.tlb_miss_interrupt_cycles = 32;
  mc.hash_miss_interrupt_cycles = 32;  // on the 603 software raises the "emulated" miss path
  mc.hw_walk_base_cycles = 0;          // no hardware walker
  return mc;
}

MachineConfig MachineConfig::Ppc604(uint32_t mhz) {
  MachineConfig mc;
  mc.name = "PPC604 " + std::to_string(mhz) + "MHz";
  mc.cpu = CpuModel::kPpc604;
  mc.clock_mhz = mhz;
  mc.icache = CacheGeometry{.size_bytes = 16 * 1024, .line_bytes = 32, .associativity = 4};
  mc.dcache = CacheGeometry{.size_bytes = 16 * 1024, .line_bytes = 32, .associativity = 4};
  mc.itlb_entries = 128;
  mc.dtlb_entries = 128;
  mc.memory = MemoryTiming{.line_fill_cycles = 28, .single_beat_cycles = 12,
                           .writeback_cycles = 10};
  mc.tlb_miss_interrupt_cycles = 91;  // reaching software at all costs the hash-miss entry
  mc.hash_miss_interrupt_cycles = 91;
  mc.hw_walk_base_cycles = 24;
  return mc;
}

MachineConfig MachineConfig::Ppc604FastBoard(uint32_t mhz) {
  MachineConfig mc = Ppc604(mhz);
  mc.name = "PPC604 " + std::to_string(mhz) + "MHz (fast board)";
  mc.memory = MemoryTiming{.line_fill_cycles = 22, .single_beat_cycles = 9,
                           .writeback_cycles = 8};
  return mc;
}

}  // namespace ppcmm
