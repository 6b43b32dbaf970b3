// Fixture: a clean Search body, plus a decoy — banned tokens OUTSIDE a registered hot
// function must not fire.
struct FixtureHashTable {
  unsigned Search(unsigned hash) const { return hash & 1023u; }
  unsigned* Grow() { return new unsigned[64]; }  // not a hot function: no diagnostic
  unsigned ProbePair(unsigned hash) const { return ~hash & 1023u; }
};
