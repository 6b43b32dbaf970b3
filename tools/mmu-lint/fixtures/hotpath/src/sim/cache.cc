// Fixture: a clean sweep kernel body — it must produce nothing.
#include "src/sim/cache.h"
unsigned FixtureCache::SweepSets(unsigned a, unsigned b, unsigned n) const { return a + b + n; }
