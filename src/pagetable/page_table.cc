#include "src/pagetable/page_table.h"

#include "src/sim/check.h"

namespace ppcmm {

PageTable::PageTable(PageAllocator& allocator, PhysicalMemory& memory)
    : allocator_(allocator), memory_(memory) {
  const std::optional<uint32_t> frame = allocator_.Alloc();
  if (!frame.has_value()) {
    throw OutOfMemoryError("out of memory allocating a PGD frame");
  }
  pgd_frame_ = *frame;
  memory_.ZeroFrame(pgd_frame_);
}

PageTable::~PageTable() {
  ForEachPtePage([this](uint32_t, uint32_t pte_frame) { allocator_.DecRef(pte_frame); });
  allocator_.DecRef(pgd_frame_);
}

std::optional<LinuxPte> PageTable::Lookup(EffAddr ea, MemCharger& charger) const {
  charger.Charge(PgdEntryAddr(PgdIndex(ea)), /*is_write=*/false);
  const std::optional<uint32_t> pte_frame = PtePageFrame(PgdIndex(ea));
  if (!pte_frame.has_value()) {
    return std::nullopt;
  }
  const PhysAddr slot = PteEntryAddr(*pte_frame, PteIndex(ea));
  charger.Charge(slot, /*is_write=*/false);
  return LinuxPte::Decode(memory_.Read32(slot));
}

std::optional<LinuxPte> PageTable::LookupQuiet(EffAddr ea) const {
  NullMemCharger null_charger;
  return Lookup(ea, null_charger);
}

void PageTable::Map(EffAddr ea, const LinuxPte& pte, MemCharger* charger) {
  PPCMM_CHECK_MSG(pte.present, "Map requires a present PTE; use Unmap to clear");
  std::optional<uint32_t> pte_frame = PtePageFrame(PgdIndex(ea));
  if (!pte_frame.has_value()) {
    const std::optional<uint32_t> fresh = allocator_.Alloc();
    if (!fresh.has_value()) {
      throw OutOfMemoryError("out of memory allocating a PTE page");
    }
    memory_.ZeroFrame(*fresh);
    memory_.Write32(PgdEntryAddr(PgdIndex(ea)), (*fresh << 12) | kPgdPresentBit);
    pgd_present_[PgdIndex(ea) / 64] |= uint64_t{1} << (PgdIndex(ea) % 64);
    if (charger != nullptr) {
      charger->Charge(PgdEntryAddr(PgdIndex(ea)), /*is_write=*/true);
    }
    pte_frame = fresh;
  }
  const PhysAddr slot = PteEntryAddr(*pte_frame, PteIndex(ea));
  const LinuxPte old = LinuxPte::Decode(memory_.Read32(slot));
  if (!old.present) {
    ++present_count_;
  }
  memory_.Write32(slot, pte.Encode());
  if (charger != nullptr) {
    charger->Charge(slot, /*is_write=*/true);
  }
}

std::optional<LinuxPte> PageTable::Unmap(EffAddr ea, MemCharger* charger) {
  const std::optional<uint32_t> pte_frame = PtePageFrame(PgdIndex(ea));
  if (!pte_frame.has_value()) {
    return std::nullopt;
  }
  const PhysAddr slot = PteEntryAddr(*pte_frame, PteIndex(ea));
  const LinuxPte old = LinuxPte::Decode(memory_.Read32(slot));
  if (!old.present) {
    return std::nullopt;
  }
  memory_.Write32(slot, 0);
  if (charger != nullptr) {
    charger->Charge(slot, /*is_write=*/true);
  }
  --present_count_;
  return old;
}

uint32_t PageTable::PresentCount() const { return present_count_; }

}  // namespace ppcmm
