// Block Address Translation (BAT) registers.
//
// The PPC's alternative translation path: eight BAT registers (four instruction, four data)
// associate virtual blocks of 128 KB or more with contiguous physical memory. When a BAT
// matches, the page-table translation is abandoned — the access consumes no TLB entry and no
// hashed-page-table entry, which is exactly why the paper maps kernel text/data through them
// (§5.1): the kernel's TLB footprint drops to (near) zero.

#ifndef PPCMM_SRC_MMU_BAT_H_
#define PPCMM_SRC_MMU_BAT_H_

#include <array>
#include <cstdint>
#include <optional>

#include "src/sim/addr.h"
#include "src/sim/phys_addr.h"

namespace ppcmm {

inline constexpr uint32_t kNumBats = 4;            // per side (4 IBAT + 4 DBAT)
inline constexpr uint32_t kMinBatBlock = 128 * 1024;  // minimum block size, 128 KB

// One BAT register pair (upper/lower collapsed into one logical entry).
struct BatEntry {
  bool valid = false;
  uint32_t eff_base = 0;       // effective base address, block aligned
  uint32_t block_bytes = 0;    // power of two, >= 128 KB
  uint32_t phys_base = 0;      // physical base address, block aligned
  bool cache_inhibited = false;  // WIMG I bit for the whole block
  bool supervisor_only = true;   // kernel mappings are not user visible
};

// The result of a successful BAT translation.
struct BatHit {
  PhysAddr pa;
  bool cache_inhibited = false;
};

// One side's array of four BAT registers.
class BatArray {
 public:
  BatArray() = default;

  // Programs entry `index`. Base addresses must be aligned to the (power-of-two) block size.
  void Set(uint32_t index, const BatEntry& entry);
  void Clear(uint32_t index);
  const BatEntry& Get(uint32_t index) const;

  // Attempts to translate `ea`. `supervisor` selects privileged matching — user accesses
  // never match supervisor-only entries. Inline: the BAT scan runs ahead of the page-table
  // path on every single MMU access.
  std::optional<BatHit> Translate(EffAddr ea, bool supervisor) const {
    for (const BatEntry& entry : entries_) {
      if (!entry.valid) {
        continue;
      }
      if (entry.supervisor_only && !supervisor) {
        continue;
      }
      const uint32_t mask = ~(entry.block_bytes - 1);
      if ((ea.value & mask) == entry.eff_base) {
        const uint32_t offset = ea.value & (entry.block_bytes - 1);
        return BatHit{.pa = PhysAddr(entry.phys_base + offset),
                      .cache_inhibited = entry.cache_inhibited};
      }
    }
    return std::nullopt;
  }

  // True if any valid entry covers `ea` for the given privilege.
  bool Covers(EffAddr ea, bool supervisor) const { return Translate(ea, supervisor).has_value(); }

  uint32_t ValidCount() const;

 private:
  std::array<BatEntry, kNumBats> entries_{};
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_MMU_BAT_H_
