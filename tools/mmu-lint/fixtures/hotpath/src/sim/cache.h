// Fixture: a hot body that grows a vector.
#include <vector>
struct FixtureCache {
  unsigned TouchLine(unsigned line) {
    history_.push_back(line);  // line 5: HOT-ALLOC-020
    return line;
  }
  unsigned Access(unsigned line) const { return TouchLine(line) + 1; }
  unsigned Run(unsigned line, unsigned n) const { return AccessLineRun(line, n) + SweepLines(line, n); }
  unsigned Uncached(unsigned n) const { return n + history_.size(); }
  unsigned AccessLineRun(unsigned line, unsigned n) const { return TouchLine(line) + n; }
  unsigned SweepLines(unsigned line, unsigned n) const { return SweepSets(line, line, n); }
  unsigned SweepLinePairs(unsigned a, unsigned b, unsigned n) const { return SweepSets(a, b, n); }
  unsigned SweepSets(unsigned a, unsigned b, unsigned n) const;
  std::vector<unsigned> history_;
};
