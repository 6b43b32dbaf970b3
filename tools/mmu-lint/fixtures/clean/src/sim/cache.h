// Clean fixture: the hot root's callees index preallocated storage.
#include "src/sim/types.h"
struct CleanCache {
  unsigned Access(unsigned line) const { return TouchLine(line) + 1; }
  unsigned TouchLine(unsigned line) const { return rows_[line & 7u]; }
  unsigned rows_[8] = {};
};
