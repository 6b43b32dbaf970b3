// Fixture twin of the real sweep pool: exempt from DET-THREAD-013 alone.
#include <cstdlib>
#include <mutex>
#include <thread>
struct FixtureSweepRunner {
  std::mutex error_mutex;  // exempt: one System per work item
  std::thread worker;      // exempt
  int Seed() { return rand(); }  // line 8: DET-RAND-010 still fires here
};
