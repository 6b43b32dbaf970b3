// Fixture: a decoy outside the registered span-validity bodies — the same pointer cast
// that fires inside Mmu::AccessRun must stay quiet here.
struct FixtureMmuH {
  unsigned Stamp() const { return unsigned(reinterpret_cast<unsigned long>(this)); }
};
