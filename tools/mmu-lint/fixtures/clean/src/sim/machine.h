// Clean fixture: a marked hot root whose body and closure have nothing to flag.
#include "src/sim/cache.h"
struct CleanMachine {
  unsigned TouchData(unsigned ea) {
    // mmu-lint-hot(HOT-CLOSURE-030): the clean fixture's translation root
    return cache_.Access(ea);
  }
  CleanCache cache_;
};
