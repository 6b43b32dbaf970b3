// Fixture: a harness that parks each task body on its own host thread.
#include <condition_variable>  // line 2: DET-THREAD-013
#include <thread>              // line 3: DET-THREAD-013
struct FixtureFibers {
  std::condition_variable wake;  // line 5: DET-THREAD-013
  std::thread body;              // line 6: DET-THREAD-013
};
