// Clean fixture: the sweep kernel body with nothing to flag.
#include "src/sim/cache.h"
unsigned CleanCache::SweepSets(unsigned a, unsigned b, unsigned n) const {
  return rows_[(a + b + n) & 7u];
}
