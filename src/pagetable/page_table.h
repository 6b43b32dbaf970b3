// The Linux two-level page table (PGD → PTE page → frame).
//
// Layout mirrors the classic 32-bit scheme: the PGD is one 4 KB frame of 1024 word-sized
// entries, each pointing at a PTE page that maps 4 MB (1024 × 4 KB). A lookup is therefore
// at most two loads here plus one load of the PGD pointer in the task structure — the
// "three loads in the worst case" of §6.1. Directory frames live in simulated physical
// memory, so walks hit the data cache exactly like the real handler's loads did.

#ifndef PPCMM_SRC_PAGETABLE_PAGE_TABLE_H_
#define PPCMM_SRC_PAGETABLE_PAGE_TABLE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <optional>

#include "src/sim/addr.h"
#include "src/sim/check.h"
#include "src/sim/mem_charge.h"
#include "src/pagetable/linux_pte.h"
#include "src/pagetable/page_allocator.h"
#include "src/sim/memory.h"

namespace ppcmm {

inline constexpr uint32_t kPgdEntries = 1024;
inline constexpr uint32_t kPteEntriesPerPage = 1024;
inline constexpr uint32_t kPgdShift = 22;

// One address space's two-level tree.
class PageTable {
 public:
  // Allocates the PGD frame from `allocator`; directory storage lives in `memory`.
  PageTable(PageAllocator& allocator, PhysicalMemory& memory);
  // Releases the PGD and all PTE pages (leaf frames are the owner's responsibility).
  ~PageTable();

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  // Walks the tree for `ea`, charging one load per level touched. Returns the decoded leaf
  // entry (present or not) or nullopt when no PTE page exists for the region.
  std::optional<LinuxPte> Lookup(EffAddr ea, MemCharger& charger) const;

  // Uncharged lookup for kernel bookkeeping and tests.
  std::optional<LinuxPte> LookupQuiet(EffAddr ea) const;

  // Installs (or replaces) the leaf entry for `ea`, allocating the PTE page on demand.
  // Charges the directory stores through `charger` when provided.
  void Map(EffAddr ea, const LinuxPte& pte, MemCharger* charger = nullptr);

  // Clears the leaf entry; returns the previous entry if it was present.
  std::optional<LinuxPte> Unmap(EffAddr ea, MemCharger* charger = nullptr);

  // Rewrites the leaf entry for `ea` through `update` (a callable taking LinuxPte&); the
  // entry must exist and be present.
  template <typename Fn>
  void Update(EffAddr ea, Fn&& update, MemCharger* charger = nullptr) {
    const std::optional<uint32_t> pte_frame = PtePageFrame(PgdIndex(ea));
    PPCMM_CHECK_MSG(pte_frame.has_value(), "Update on unmapped region 0x" << std::hex << ea.value);
    const PhysAddr slot = PteEntryAddr(*pte_frame, PteIndex(ea));
    LinuxPte pte = LinuxPte::Decode(memory_.Read32(slot));
    PPCMM_CHECK_MSG(pte.present, "Update on non-present PTE at 0x" << std::hex << ea.value);
    update(pte);
    PPCMM_CHECK_MSG(pte.present, "Update must not clear the present bit; use Unmap");
    memory_.Write32(slot, pte.Encode());
    if (charger != nullptr) {
      charger->Charge(slot, /*is_write=*/true);
    }
  }

  // Invokes `fn(EffAddr, const LinuxPte&)` for every present leaf entry (functional
  // iteration; nothing is charged).
  template <typename Fn>
  void ForEachPresent(Fn&& fn) const {
    ForEachPtePage([&](uint32_t g, uint32_t pte_frame) {
      for (uint32_t i = 0; i < kPteEntriesPerPage; ++i) {
        const LinuxPte pte = LinuxPte::Decode(memory_.Read32(PteEntryAddr(pte_frame, i)));
        if (pte.present) {
          fn(EffAddr((g << kPgdShift) | (i << kPageShift)), pte);
        }
      }
    });
  }

  // Number of present leaf entries.
  uint32_t PresentCount() const;

  uint32_t pgd_frame() const { return pgd_frame_; }

 private:
  static uint32_t PgdIndex(EffAddr ea) { return ea.value >> kPgdShift; }
  static uint32_t PteIndex(EffAddr ea) {
    return (ea.value >> kPageShift) & (kPteEntriesPerPage - 1);
  }
  PhysAddr PgdEntryAddr(uint32_t index) const {
    return PhysAddr::FromFrame(pgd_frame_, index * 4);
  }
  static PhysAddr PteEntryAddr(uint32_t pte_frame, uint32_t index) {
    return PhysAddr::FromFrame(pte_frame, index * 4);
  }
  // Invokes `fn(pgd_index, pte_frame)` for every present PGD entry in index order. The
  // present bitmap lets the walk skip empty entries without reading them.
  template <typename Fn>
  void ForEachPtePage(Fn&& fn) const {
    for (uint32_t word = 0; word < pgd_present_.size(); ++word) {
      for (uint64_t bits = pgd_present_[word]; bits != 0; bits &= bits - 1) {
        const uint32_t g = word * 64 + static_cast<uint32_t>(std::countr_zero(bits));
        fn(g, *PtePageFrame(g));
      }
    }
  }
  // Reads the PGD entry; returns the PTE-page frame or nullopt if absent.
  std::optional<uint32_t> PtePageFrame(uint32_t pgd_index) const {
    const uint32_t word = memory_.Read32(PgdEntryAddr(pgd_index));
    if ((word & kPgdPresentBit) == 0) {
      return std::nullopt;
    }
    return word >> 12;
  }

  // PGD entries: PTE-page frame in the high 20 bits, present in bit 0.
  static constexpr uint32_t kPgdPresentBit = 1u << 0;

  PageAllocator& allocator_;
  PhysicalMemory& memory_;
  uint32_t pgd_frame_ = 0;
  uint32_t present_count_ = 0;
  // Bit g mirrors the present bit of PGD entry g (PTE pages are never freed before the
  // table itself, so bits are only ever set).
  std::array<uint64_t, kPgdEntries / 64> pgd_present_{};
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_PAGETABLE_PAGE_TABLE_H_
