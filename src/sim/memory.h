// Simulated physical memory.
//
// Backs the whole 32 MB RAM of the paper's testbed with real storage so that higher layers
// can verify data integrity end to end (e.g. pre-zeroed pages really contain zeroes, pipe
// payloads survive the round trip). Timing is not modelled here — the cache model charges
// memory-latency cycles; this class is purely functional.
//
// RAM is zero-on-demand: the backing store is a private anonymous host mapping, so every
// frame reads as zero from the start, but the host only supplies (and zeroes) a page the
// first time it is touched. Building a machine therefore costs nothing per megabyte of
// simulated RAM, and a short run only pays for the frames it actually uses.

#ifndef PPCMM_SRC_SIM_MEMORY_H_
#define PPCMM_SRC_SIM_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/sim/phys_addr.h"

namespace ppcmm {

// Byte-addressable physical memory with bounds checking.
class PhysicalMemory {
 public:
  explicit PhysicalMemory(uint64_t size_bytes);
  ~PhysicalMemory();

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  uint64_t size_bytes() const { return size_; }
  uint64_t num_frames() const { return size_ / kPageSize; }

  // The scalar accessors are inline — the page-zeroing, pipe-copy and page-table paths
  // issue millions of them — with the bounds check reduced to one compare and the failure
  // path (message formatting, throw) kept cold and out of line.
  uint8_t Read8(PhysAddr pa) const {
    CheckRange(pa, 1);
    return data_[pa.value];
  }
  void Write8(PhysAddr pa, uint8_t value) {
    CheckRange(pa, 1);
    data_[pa.value] = value;
  }
  uint32_t Read32(PhysAddr pa) const {
    CheckRange(pa, 4);
    uint32_t v = 0;
    std::memcpy(&v, &data_[pa.value], 4);
    return v;
  }
  void Write32(PhysAddr pa, uint32_t value) {
    CheckRange(pa, 4);
    std::memcpy(&data_[pa.value], &value, 4);
  }
  uint64_t Read64(PhysAddr pa) const {
    CheckRange(pa, 8);
    uint64_t v = 0;
    std::memcpy(&v, &data_[pa.value], 8);
    return v;
  }
  void Write64(PhysAddr pa, uint64_t value) {
    CheckRange(pa, 8);
    std::memcpy(&data_[pa.value], &value, 8);
  }

  // Copies `len` bytes between physical ranges; ranges must not overlap.
  void Copy(PhysAddr dst, PhysAddr src, uint32_t len);
  // Stores `len` bytes from host memory at `src` to the physical range at `dst`.
  void Write(PhysAddr dst, const void* src, uint32_t len);
  // Fills `len` bytes with `value`.
  void Fill(PhysAddr dst, uint8_t value, uint32_t len);
  // Zeroes an entire page frame.
  void ZeroFrame(uint32_t frame);
  // Returns true if the entire page frame is zero.
  bool FrameIsZero(uint32_t frame) const;

 private:
  void CheckRange(PhysAddr pa, uint32_t len) const {
    if (static_cast<uint64_t>(pa.value) + len > size_) [[unlikely]] {
      FailRange(pa, len);
    }
  }
  [[noreturn]] void FailRange(PhysAddr pa, uint32_t len) const;

  uint64_t size_;
  uint8_t* data_;  // size_ bytes of zero-on-demand host pages
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_SIM_MEMORY_H_
