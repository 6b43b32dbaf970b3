// Call-graph builder corpus: overloads, receivers typed by a reference parameter or a
// `Cls*` member, recursion, a cycle, explicit template arguments and a called-through
// address. Asserted via --callgraph-dump json in lint_test; no rule violations are staged.

class Widget {
 public:
  void Spin();
  void Spin(uint32_t turns);
  uint32_t Unwind(uint32_t depth);
};

// Overloads merge into one node (defs: 2); the zero-arg form calls its sibling.
void Widget::Spin() {
  Spin(1);
}

void Widget::Spin(uint32_t turns) {
  for (uint32_t i = 0; i < turns; ++i) {
    Step();
  }
}

void Widget::Step() {
  ticks_ += 1;
}

// Direct recursion: a self-edge.
uint32_t Widget::Unwind(uint32_t depth) {
  if (depth == 0) {
    return 0;
  }
  return Unwind(depth - 1);
}

// Free function; the receiver type comes from the declared parameter, not a member table.
void Drive(Widget& widget) {
  widget.Spin(3);
}

// A cycle between two free functions, resolved by unique global name.
void PingStage(uint32_t depth) {
  if (depth != 0) {
    PongStage(depth - 1);
  }
}

void PongStage(uint32_t depth) {
  if (depth != 0) {
    PingStage(depth - 1);
  }
}

// Explicit template arguments sit between the name and the call parentheses.
template <uint32_t kTurns>
uint32_t Crank(uint32_t base) {
  return base + kTurns;
}

uint32_t CrankTwice(uint32_t base) {
  return Crank<2>(base) + Crank<1>(base);
}

// The address is taken here and the pointer called later: the edge is from the taker.
void Settle(uint32_t depth) {
  PingStage(depth);
}

void RunSettled(uint32_t depth) {
  void (*stage)(uint32_t) = &Settle;
  stage(depth);
}

// The receiver's type comes from the `Widget*` member declaration in the class body.
class Gearbox {
 public:
  void Shift();

 private:
  Widget* widget_ = nullptr;
};

void Gearbox::Shift() {
  widget_->Spin(2);
}
