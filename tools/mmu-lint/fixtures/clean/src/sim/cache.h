// Clean fixture: hot cache bodies index preallocated storage.
#include "src/sim/types.h"
struct CleanCache {
  unsigned Access(unsigned line) const { return TouchLine(line) + 1; }
  unsigned Run(unsigned line, unsigned n) const { return AccessLineRun(line, n) + SweepLines(line, n); }
  unsigned Uncached(unsigned n) const { return 12 * n; }
  unsigned AccessLineRun(unsigned line, unsigned n) const { return TouchLine(line) + n; }
  unsigned TouchLine(unsigned line) const { return rows_[line & 7u]; }
  unsigned SweepLines(unsigned line, unsigned n) const { return SweepSets(line, line, n); }
  unsigned SweepLinePairs(unsigned a, unsigned b, unsigned n) const { return SweepSets(a, b, n); }
  unsigned SweepSets(unsigned a, unsigned b, unsigned n) const;
  unsigned rows_[8] = {};
};
