// PhysicalMemory tests: round-trips, bounds checking, bulk operations.

#include <gtest/gtest.h>

#include "src/sim/check.h"
#include "src/sim/memory.h"

namespace ppcmm {
namespace {

TEST(PhysicalMemoryTest, StartsZeroed) {
  PhysicalMemory mem(64 * 1024);
  EXPECT_EQ(mem.size_bytes(), 64u * 1024);
  EXPECT_EQ(mem.num_frames(), 16u);
  for (uint32_t frame = 0; frame < mem.num_frames(); ++frame) {
    EXPECT_TRUE(mem.FrameIsZero(frame));
  }
}

TEST(PhysicalMemoryTest, ReadWriteRoundTrip) {
  PhysicalMemory mem(64 * 1024);
  mem.Write8(PhysAddr(100), 0xAB);
  EXPECT_EQ(mem.Read8(PhysAddr(100)), 0xAB);
  mem.Write32(PhysAddr(200), 0xDEADBEEF);
  EXPECT_EQ(mem.Read32(PhysAddr(200)), 0xDEADBEEFu);
  mem.Write64(PhysAddr(300), 0x0123456789ABCDEFull);
  EXPECT_EQ(mem.Read64(PhysAddr(300)), 0x0123456789ABCDEFull);
}

TEST(PhysicalMemoryTest, RejectsUnalignedSize) {
  EXPECT_THROW(PhysicalMemory(1000), CheckFailure);
  EXPECT_THROW(PhysicalMemory(0), CheckFailure);
}

TEST(PhysicalMemoryTest, BoundsChecked) {
  PhysicalMemory mem(8 * 1024);
  EXPECT_THROW(mem.Read8(PhysAddr(8 * 1024)), CheckFailure);
  EXPECT_THROW(mem.Write32(PhysAddr(8 * 1024 - 2), 1), CheckFailure);
  EXPECT_THROW(mem.Read64(PhysAddr(8 * 1024 - 7)), CheckFailure);
  // Last valid positions are fine.
  EXPECT_NO_THROW(mem.Read8(PhysAddr(8 * 1024 - 1)));
  EXPECT_NO_THROW(mem.Read64(PhysAddr(8 * 1024 - 8)));
}

TEST(PhysicalMemoryTest, CopyAndFill) {
  PhysicalMemory mem(16 * 1024);
  mem.Fill(PhysAddr(0), 0x5A, 256);
  mem.Copy(PhysAddr(4096), PhysAddr(0), 256);
  EXPECT_EQ(mem.Read8(PhysAddr(4096)), 0x5A);
  EXPECT_EQ(mem.Read8(PhysAddr(4096 + 255)), 0x5A);
  EXPECT_EQ(mem.Read8(PhysAddr(4096 + 256)), 0);
}

TEST(PhysicalMemoryTest, CopyRejectsOverlap) {
  PhysicalMemory mem(16 * 1024);
  EXPECT_THROW(mem.Copy(PhysAddr(0), PhysAddr(100), 256), CheckFailure);
  EXPECT_THROW(mem.Copy(PhysAddr(100), PhysAddr(0), 256), CheckFailure);
  // Disjoint is fine.
  EXPECT_NO_THROW(mem.Copy(PhysAddr(0), PhysAddr(256), 256));
}

TEST(PhysicalMemoryTest, ZeroFrame) {
  PhysicalMemory mem(16 * 1024);
  mem.Fill(PhysAddr::FromFrame(2), 0xFF, kPageSize);
  EXPECT_FALSE(mem.FrameIsZero(2));
  mem.ZeroFrame(2);
  EXPECT_TRUE(mem.FrameIsZero(2));
  // Neighbours untouched.
  mem.Fill(PhysAddr::FromFrame(1), 0x11, kPageSize);
  mem.ZeroFrame(2);
  EXPECT_FALSE(mem.FrameIsZero(1));
}

TEST(PhysicalMemoryTest, FullSizeRamIsZeroOnDemand) {
  // The paper's 32 MB testbed: every frame reads as zero without anything having been
  // written, and accesses just past the end still throw.
  PhysicalMemory mem(32u << 20);
  ASSERT_EQ(mem.num_frames(), 8192u);
  for (uint32_t frame = 0; frame < mem.num_frames(); ++frame) {
    ASSERT_TRUE(mem.FrameIsZero(frame)) << frame;
  }
  EXPECT_THROW(mem.Read8(PhysAddr(32u << 20)), CheckFailure);
  EXPECT_THROW(mem.Write64(PhysAddr((32u << 20) - 4), 1), CheckFailure);
  EXPECT_THROW(mem.ZeroFrame(8192), CheckFailure);
  EXPECT_THROW(mem.FrameIsZero(8192), CheckFailure);
  EXPECT_THROW(mem.Copy(PhysAddr::FromFrame(8191, 8), PhysAddr(0), kPageSize), CheckFailure);
}

TEST(PhysicalMemoryTest, ZeroFrameAndCopyWorkOnUntouchedFrames) {
  PhysicalMemory mem(32u << 20);
  // Zeroing a frame nothing has touched leaves it (and its neighbours) zero.
  mem.ZeroFrame(4000);
  EXPECT_TRUE(mem.FrameIsZero(4000));
  EXPECT_TRUE(mem.FrameIsZero(4001));
  // Copying an untouched frame over a dirty one zeroes the destination...
  mem.Fill(PhysAddr::FromFrame(10), 0xC3, kPageSize);
  mem.Copy(PhysAddr::FromFrame(10), PhysAddr::FromFrame(7000), kPageSize);
  EXPECT_TRUE(mem.FrameIsZero(10));
  // ...and copying a dirty frame into an untouched one carries the bytes across.
  mem.Write32(PhysAddr::FromFrame(11, 64), 0xFEEDFACE);
  mem.Copy(PhysAddr::FromFrame(7001), PhysAddr::FromFrame(11), kPageSize);
  EXPECT_EQ(mem.Read32(PhysAddr::FromFrame(7001, 64)), 0xFEEDFACEu);
  EXPECT_FALSE(mem.FrameIsZero(7001));
  EXPECT_TRUE(mem.FrameIsZero(7002));
}

}  // namespace
}  // namespace ppcmm
