// Fixture: a decoy outside the marked hot roots — the same pointer cast that fires inside
// Mmu::ReplaySpan must stay quiet here.
struct FixtureMmuH {
  unsigned Stamp() const { return unsigned(reinterpret_cast<unsigned long>(this)); }
};
