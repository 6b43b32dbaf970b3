// FLUSH-CONTRACT-029 corpus. Nothing here compiles as real code; mmu-lint is token-level
// and only needs the shapes: htab_ resolves to HashTable through its declaration below,
// mmu_ to Mmu through the receiver table, so each body reaches a flush primitive or not.

// Violation: a bare HTAB insert — nothing downstream ever runs tlbie.
void VmaZap::ZapOne(VirtPage vp) {
  htab_.Insert(pte, oracle, charger);
}

// Clean: the insert is paired with the invalidate in the same body.
void VmaZap::ZapFlushed(VirtPage vp) {
  htab_.Insert(pte, oracle, charger);
  mmu_.TlbInvalidatePage(ea);
}

// Clean: the flush is one call-graph hop down, not in the mutating body itself.
void VmaZap::ZapVia(VirtPage vp) {
  htab_.Insert(pte, oracle, charger);
  FlushTail();
}

void VmaZap::FlushTail() {
  mmu_.TlbInvalidatePage(ea);
}

// Clean: the flush is deferred, and the annotation says where it happens.
void VmaZap::ZapDeferred(VirtPage vp) {
  // mmu-lint-deferred-flush(FLUSH-CONTRACT-029): the batch epilogue in the caller runs tlbia
  htab_.Insert(pte, oracle, charger);
}

// Two violations: a bare marker carries no reason, so it fails the annotation check AND
// leaves the mutation uncovered.
void VmaZap::ZapBare(VirtPage vp) {
  // mmu-lint-deferred-flush(FLUSH-CONTRACT-029):
  htab_.Insert(pte, oracle, charger);
}

class HashTable;
class VmaZap {
  HashTable htab_;
};
