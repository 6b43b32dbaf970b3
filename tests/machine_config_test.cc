// Machine profile tests: the 603/604 configurations match the paper's hardware description.

#include <gtest/gtest.h>

#include "src/sim/cycle_types.h"
#include "src/sim/machine.h"
#include "src/sim/machine_config.h"

namespace ppcmm {
namespace {

TEST(MachineConfigTest, Ppc603Profile) {
  const MachineConfig mc = MachineConfig::Ppc603(180);
  EXPECT_EQ(mc.cpu, CpuModel::kPpc603);
  EXPECT_EQ(mc.clock_mhz, 180u);
  // "The PowerPC 603 TLB has 128 entries" (§5.1) — 64 instruction + 64 data.
  EXPECT_EQ(mc.itlb_entries + mc.dtlb_entries, 128u);
  // 32-cycle miss-handler invoke/return (§5).
  EXPECT_EQ(mc.tlb_miss_interrupt_cycles, 32u);
  EXPECT_EQ(mc.ram_bytes, 32ull * 1024 * 1024);
}

TEST(MachineConfigTest, Ppc604Profile) {
  const MachineConfig mc = MachineConfig::Ppc604(185);
  EXPECT_EQ(mc.cpu, CpuModel::kPpc604);
  // "the 604 has 256 entries" (§5.1).
  EXPECT_EQ(mc.itlb_entries + mc.dtlb_entries, 256u);
  // "adds at least 91 more cycles to just invoke the handler" (§5).
  EXPECT_EQ(mc.hash_miss_interrupt_cycles, 91u);
  // The 604's caches are double the 603's (§11).
  const MachineConfig m603 = MachineConfig::Ppc603(180);
  EXPECT_EQ(mc.icache.size_bytes, 2 * m603.icache.size_bytes);
  EXPECT_EQ(mc.dcache.size_bytes, 2 * m603.dcache.size_bytes);
}

TEST(MachineConfigTest, FastBoardHasLowerMemoryLatency) {
  const MachineConfig normal = MachineConfig::Ppc604(200);
  const MachineConfig fast = MachineConfig::Ppc604FastBoard(200);
  EXPECT_LT(fast.memory.line_fill_cycles, normal.memory.line_fill_cycles);
  EXPECT_LT(fast.memory.single_beat_cycles, normal.memory.single_beat_cycles);
}

TEST(MachineConfigTest, HtabGeometry) {
  const MachineConfig mc = MachineConfig::Ppc604(185);
  EXPECT_EQ(mc.htab_ptegs, 2048u);
  EXPECT_EQ(mc.HtabEntries(), 16384u);  // "600–700 out of 16384" (§7)
  EXPECT_EQ(mc.PageSizeBytes(), 4096u);
  EXPECT_EQ(mc.NumPageFrames(), 8192u);
}

TEST(CycleTypesTest, Conversions) {
  EXPECT_DOUBLE_EQ(CyclesToMicros(Cycles(133), 133), 1.0);
  EXPECT_DOUBLE_EQ(CyclesToSeconds(Cycles(133'000'000), 133), 1.0);
  EXPECT_EQ(MicrosToCycles(2.0, 100).value, 200u);
  EXPECT_EQ((Cycles(3) + Cycles(4)).value, 7u);
  EXPECT_EQ((Cycles(10) - Cycles(4)).value, 6u);
  EXPECT_EQ((Cycles(3) * 4).value, 12u);
  EXPECT_LT(Cycles(3), Cycles(4));
}

TEST(MachineTest, TouchAdvancesClock) {
  Machine machine(MachineConfig::Ppc604(185));
  EXPECT_EQ(machine.Now().value, 0u);
  machine.TouchData(PhysAddr(0x1000), false);  // cold miss
  EXPECT_EQ(machine.Now().value, machine.config().memory.line_fill_cycles);
  machine.TouchData(PhysAddr(0x1000), false);  // hit
  EXPECT_EQ(machine.Now().value, machine.config().memory.line_fill_cycles + 1);
  machine.TouchData(PhysAddr(0x2000), false, /*cached=*/false);
  EXPECT_EQ(machine.Now().value, machine.config().memory.line_fill_cycles + 1 +
                                     machine.config().memory.single_beat_cycles);
}

TEST(MachineTest, SplitCaches) {
  Machine machine(MachineConfig::Ppc604(185));
  machine.TouchInstruction(PhysAddr(0x3000));
  EXPECT_EQ(machine.icache().stats().misses, 1u);
  EXPECT_EQ(machine.dcache().stats().misses, 0u);
  EXPECT_TRUE(machine.icache().Contains(PhysAddr(0x3000)));
  EXPECT_FALSE(machine.dcache().Contains(PhysAddr(0x3000)));
}

TEST(MachineTest, ElapsedTimeUsesClockRate) {
  Machine machine(MachineConfig::Ppc604(200));
  machine.AddCycles(Cycles(2000));
  EXPECT_DOUBLE_EQ(machine.ElapsedMicros(), 10.0);
}

}  // namespace
}  // namespace ppcmm
