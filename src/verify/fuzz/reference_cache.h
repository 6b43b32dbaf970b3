// Trivially-correct reference model of one set-associative cache.
//
// Part of the shared oracle layer under src/verify/fuzz/: deliberately slow, obviously
// correct, and sharing zero code with the real models in src/sim/. The LRU discipline is a
// std::list per set with the most-recently-used line at the back — exactly the textbook
// description, with none of the real Cache's indexing or stamp tricks. Promoted out of
// tests/reference_model_test.cc so the model-based unit tests and the differential fuzzer
// check the same reference.

#ifndef PPCMM_SRC_VERIFY_FUZZ_REFERENCE_CACHE_H_
#define PPCMM_SRC_VERIFY_FUZZ_REFERENCE_CACHE_H_

#include <cstdint>
#include <list>
#include <map>

#include "src/sim/machine_config.h"
#include "src/sim/phys_addr.h"

namespace ppcmm {

// Reference cache: a map of (set -> LRU list of resident lines), each line with a dirty bit
// (write-back, write-allocate: a store dirties the line, a displaced dirty line is written
// back).
class ReferenceCache {
 public:
  struct Outcome {
    bool hit = false;
    bool evicted_dirty = false;  // the access displaced a dirty line
  };

  explicit ReferenceCache(const CacheGeometry& geometry) : geometry_(geometry) {}

  // Mirrors LRU with invalid-way preference via eviction on overflow.
  Outcome Access(PhysAddr pa, bool is_write) {
    const uint64_t line = pa.value / geometry_.line_bytes;
    const uint32_t set = static_cast<uint32_t>(line & (geometry_.NumSets() - 1));
    std::list<Resident>& lru = sets_[set];
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (it->line == line) {
        const Resident hit{.line = line, .dirty = it->dirty || is_write};
        lru.erase(it);
        lru.push_back(hit);  // most recent at the back
        return Outcome{.hit = true, .evicted_dirty = false};
      }
    }
    lru.push_back(Resident{.line = line, .dirty = is_write});
    Outcome outcome;
    if (lru.size() > geometry_.associativity) {
      outcome.evicted_dirty = lru.front().dirty;
      lru.pop_front();
    }
    return outcome;
  }

  bool Contains(PhysAddr pa) const {
    const uint64_t line = pa.value / geometry_.line_bytes;
    const uint32_t set = static_cast<uint32_t>(line & (geometry_.NumSets() - 1));
    auto it = sets_.find(set);
    if (it == sets_.end()) {
      return false;
    }
    for (const Resident& resident : it->second) {
      if (resident.line == line) {
        return true;
      }
    }
    return false;
  }

 private:
  struct Resident {
    uint64_t line = 0;
    bool dirty = false;
  };

  CacheGeometry geometry_;
  std::map<uint32_t, std::list<Resident>> sets_;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_VERIFY_FUZZ_REFERENCE_CACHE_H_
