#include "src/sim/memory.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include <sys/mman.h>

#include "src/sim/check.h"

namespace ppcmm {

namespace {

// Maps `size_bytes` of private anonymous memory. The kernel backs each page with zeroes on
// first touch, so nothing is written here and untouched frames never become resident.
uint8_t* MapZeroedRam(uint64_t size_bytes) {
  PPCMM_CHECK_MSG(size_bytes % kPageSize == 0, "RAM size must be page aligned");
  PPCMM_CHECK(size_bytes > 0);
  void* p = mmap(nullptr, size_bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                 0);
  PPCMM_CHECK_MSG(p != MAP_FAILED, "cannot map " << size_bytes << " bytes of simulated RAM");
  return static_cast<uint8_t*>(p);
}

}  // namespace

PhysicalMemory::PhysicalMemory(uint64_t size_bytes)
    : size_(size_bytes), data_(MapZeroedRam(size_bytes)) {}

PhysicalMemory::~PhysicalMemory() { munmap(data_, size_); }

void PhysicalMemory::FailRange(PhysAddr pa, uint32_t len) const {
  PPCMM_CHECK_MSG(false, "physical access out of range: pa=0x"
                             << std::hex << pa.value << " len=" << std::dec << len);
  std::abort();  // unreachable: PPCMM_CHECK_MSG(false, ...) always throws
}

void PhysicalMemory::Copy(PhysAddr dst, PhysAddr src, uint32_t len) {
  CheckRange(dst, len);
  CheckRange(src, len);
  const bool overlap = dst.value < src.value + len && src.value < dst.value + len && len > 0 &&
                       dst.value != src.value;
  PPCMM_CHECK_MSG(!overlap || dst.value == src.value, "PhysicalMemory::Copy ranges overlap");
  std::memmove(&data_[dst.value], &data_[src.value], len);
}

void PhysicalMemory::Write(PhysAddr dst, const void* src, uint32_t len) {
  CheckRange(dst, len);
  std::memcpy(&data_[dst.value], src, len);
}

void PhysicalMemory::Fill(PhysAddr dst, uint8_t value, uint32_t len) {
  CheckRange(dst, len);
  std::memset(&data_[dst.value], value, len);
}

void PhysicalMemory::ZeroFrame(uint32_t frame) {
  Fill(PhysAddr::FromFrame(frame), 0, kPageSize);
}

bool PhysicalMemory::FrameIsZero(uint32_t frame) const {
  const PhysAddr base = PhysAddr::FromFrame(frame);
  CheckRange(base, kPageSize);
  const uint8_t* p = &data_[base.value];
  return std::all_of(p, p + kPageSize, [](uint8_t b) { return b == 0; });
}

}  // namespace ppcmm
