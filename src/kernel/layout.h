// Physical and virtual memory layout of the mini-kernel.
//
// Mirrors Linux/PPC circa the paper: the kernel occupies low physical memory and is linearly
// mapped at 0xC0000000 (§5.1), the hashed page table sits just above the kernel image, and
// everything above that is allocatable. With the BAT optimization on, one 2 MB BAT covers
// the kernel text/data *and* the HTAB — the paper's "mapping the hash table and page-tables
// is given to us for free".
//
//   phys 0x000000 ─ 0x0FFFFF   kernel text       (1 MB, 256 frames)
//   phys 0x100000 ─ 0x17FFFF   kernel static data (512 KB, 128 frames)
//   phys 0x180000 ─ 0x19FFFF   hashed page table (128 KB = 16384 PTEs)
//   phys 0x1A0000 ─ 0x1FFFFF   kernel stacks/misc (384 KB)
//   phys 0x200000 ─ end        page allocator pool (page tables, user pages, page cache)

#ifndef PPCMM_SRC_KERNEL_LAYOUT_H_
#define PPCMM_SRC_KERNEL_LAYOUT_H_

#include <cstdint>

#include "src/sim/addr.h"
#include "src/sim/phys_addr.h"

namespace ppcmm {

// Physical layout.
inline constexpr uint32_t kKernelTextPhysBase = 0x000000;
inline constexpr uint32_t kKernelTextBytes = 0x100000;  // 1 MB
inline constexpr uint32_t kKernelDataPhysBase = 0x100000;
inline constexpr uint32_t kKernelDataBytes = 0x080000;  // 512 KB
inline constexpr uint32_t kHtabPhysBase = 0x180000;
inline constexpr uint32_t kHtabBytes = 0x020000;  // 128 KB = 2048 PTEGs
inline constexpr uint32_t kKernelMiscPhysBase = 0x1A0000;
inline constexpr uint32_t kKernelMiscBytes = 0x060000;  // task structs, kernel stacks
// The page cache's lookup lines: file f's inode/radix probes read the 64-byte line at
// kPageCacheLookupPhysBase + (f % 512) * 64. These 32 KB overlap the 1 KB task-structure
// slots Kernel::CreateTask lays out from kKernelMiscPhysBase for task ids 32 to 63 (mod
// 256): file 0's line is the first line of task 32's structure, so from task id 32 on,
// lookups and context switches can share D-cache lines. The base stays here because
// moving it would change simulated numbers.
inline constexpr uint32_t kPageCacheLookupPhysBase = 0x1A8000;
inline constexpr uint32_t kFirstPoolByte = 0x200000;
inline constexpr uint32_t kFirstPoolFrame = kFirstPoolByte >> kPageShift;

// The BAT block that covers text + data + HTAB + misc when the §5.1 optimization is on.
inline constexpr uint32_t kKernelBatBytes = 0x200000;  // 2 MB

// Kernel virtual layout: linear map at 0xC0000000.
inline constexpr EffAddr KernelVirtFromPhys(PhysAddr pa) {
  return EffAddr(kKernelVirtualBase + pa.value);
}
inline constexpr PhysAddr KernelPhysFromVirt(EffAddr ea) {
  return PhysAddr(ea.value - kKernelVirtualBase);
}

// The simulated framebuffer: a 2 MB aperture carved out of the top of RAM (a video card's
// VRAM as the CPU sees it). Accesses must be cache inhibited. §5.1 discusses dedicating a
// BAT to it so programs like X stop competing for TLB entries.
inline constexpr uint32_t kFramebufferBytes = 0x200000;  // 2 MB
inline constexpr uint32_t kUserFramebufferBase = 0x80000000;  // segment 8

// User virtual layout conventions used by the workloads.
inline constexpr uint32_t kUserTextBase = 0x01000000;   // program text
inline constexpr uint32_t kUserDataBase = 0x10000000;   // heap / anonymous maps
inline constexpr uint32_t kUserMmapBase = 0x40000000;   // mmap() area
inline constexpr uint32_t kUserStackTop = 0x7FFFF000;   // stack grows down from here

}  // namespace ppcmm

#endif  // PPCMM_SRC_KERNEL_LAYOUT_H_
