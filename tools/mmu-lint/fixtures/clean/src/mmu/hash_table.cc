// Clean fixture: Search and ProbePair probe a fixed-size table.
#include "src/mmu/hash_table.h"
struct CleanHashTable {
  unsigned Search(unsigned hash) const { return hash & 1023u; }
  unsigned ProbePair(unsigned hash) const { return ~hash & 1023u; }
};
