// Fixture: clean sweep kernel bodies — they must produce nothing.
unsigned SweepLines(unsigned line, unsigned n) { return line + n; }
unsigned SweepLinePairs(unsigned a, unsigned b, unsigned n) { return a + b + 2 * n; }
unsigned Sweep(unsigned a, unsigned n) { return a * n; }
