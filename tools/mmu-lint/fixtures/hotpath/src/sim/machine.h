// Fixture: clean hot-path bodies — TouchData/TouchInstruction must produce nothing.
#include "src/sim/cache.h"
struct FixtureMachine {
  unsigned TouchData(unsigned ea) const { return ea + 1; }
  unsigned TouchDataRun(unsigned ea, unsigned n) const { return cache_.Run(ea, n); }
  unsigned TouchInstruction(unsigned ea) const { return ea + 2; }
  unsigned TouchInstructionRun(unsigned ea, unsigned n) const { return ea + 2 * n; }
  unsigned TouchDataPairRun(unsigned a, unsigned b, unsigned n) const {
    return cache_.SweepLinePairs(a, b, n);
  }
  FixtureCache cache_;
};
