// Clean fixture: the full pure-translation tier, virtual-free.
#include "src/sim/types.h"
struct CleanTlb {
  const unsigned* LookupPtr(unsigned vp) const { return &entries_[vp & 63u]; }
  const unsigned* ProbePtr(unsigned vp) const { return &entries_[vp & 63u]; }
  void TouchLruRun(unsigned vp, unsigned n) { lru_ = vp + n; }
  unsigned entries_[64] = {};
  unsigned lru_ = 0;
};
