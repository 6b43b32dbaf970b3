// Fixture: the Machine roots. TouchData allocates in its own body and reaches an
// allocation in FixtureCache::TouchLine; TouchInstruction's marker gives no reason. The
// first marker sits above its function instead of in it, so it marks nothing.
#include <vector>
#include "src/sim/cache.h"
struct FixtureMachine {
  // mmu-lint-hot(HOT-CLOSURE-030): a stray marker above the definition (HOT-MISSING-025)
  unsigned TouchDataRun(unsigned ea, unsigned n) const { return ea + n; }
  unsigned TouchData(unsigned ea) {
    // mmu-lint-hot(HOT-CLOSURE-030): the fixture's data root
    scratch_.push_back(ea);  // line 11: HOT-ALLOC-020
    return cache_.TouchLine(ea);
  }
  unsigned TouchInstruction(unsigned ea) const {  // mmu-lint-hot(HOT-CLOSURE-030)
    return ea + 2;
  }
  std::vector<unsigned> scratch_;
  FixtureCache cache_;
};
