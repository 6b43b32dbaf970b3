// Fixture: FixtureCache is unmarked. TouchLine, reached from Machine::TouchData, grows a
// vector (HOT-CLOSURE-030); Grow allocates too, but nothing hot reaches it.
#include <vector>
struct FixtureCache {
  unsigned TouchLine(unsigned line) {
    history_.push_back(line);  // line 6: HOT-CLOSURE-030
    return line;
  }
  unsigned* Grow() { return new unsigned[64]; }  // unreachable: no diagnostic
  std::vector<unsigned> history_;
};
