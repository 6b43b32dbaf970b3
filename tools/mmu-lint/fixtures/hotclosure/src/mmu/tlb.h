// HOT-CLOSURE-030 corpus. Tlb::LookupPtr is a marked hot root; Grow is only reachable
// THROUGH it, so the allocation inside Grow violates the closure rule even though Grow
// itself carries no marker. DebugDump allocates too but is unreachable from any hot root
// and must stay quiet.

inline TlbEntry* Tlb::LookupPtr(VirtPage vp) {  // mmu-lint-hot(HOT-CLOSURE-030): the root
  if (full_) {
    Grow();
  }
  return Probe(vp);
}

inline void Tlb::Grow() {
  entries_ = new TlbEntry[64];
}

inline void Tlb::DebugDump() {
  char* scratch = new char[256];
  Render(scratch);
}
