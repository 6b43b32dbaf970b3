// Clean fixture: hot bodies with nothing to flag.
#include "src/sim/cache.h"
struct CleanMachine {
  unsigned TouchData(unsigned ea) const { return cache_.Access(ea); }
  unsigned TouchDataRun(unsigned ea, unsigned n) const { return cache_.Run(ea, n); }
  unsigned TouchInstruction(unsigned ea) const { return ea + 2; }
  unsigned TouchInstructionRun(unsigned ea, unsigned n) const { return ea + 2 * n; }
  unsigned TouchDataPairRun(unsigned a, unsigned b, unsigned n) const {
    return cache_.SweepLinePairs(a, b, n);
  }
  CleanCache cache_;
};
