// Fixture: one banned token per hot body in the Mmu tier.
#include <cstdio>
#include <mutex>
struct FixtureMmu {
  unsigned Access(unsigned ea) {
    if (ea == 0) {
      throw ea;  // line 7: HOT-THROW-021
    }
    return ea;
  }
  unsigned Reload(unsigned ea) {
    std::mutex m;  // line 12: HOT-LOCK-022
    m.lock();
    m.unlock();
    return ea;
  }
  unsigned SoftwareRefill(unsigned ea) {
    printf("refill %u\n", ea);  // line 18: HOT-IO-023
    return ea;
  }
  void InstallTlbEntry(unsigned ea) { spare_ = new unsigned(ea); }  // line 21: HOT-ALLOC-020
  unsigned ReplaySpan(unsigned ea, unsigned gen) {
    const unsigned key = unsigned(reinterpret_cast<unsigned long>(&gen));  // line 23: SPAN-GEN-027
    long now = 0;
    clock_gettime(0, &now);  // line 25: SPAN-GEN-027
    return ea + key + gen + unsigned(now);
  }
  unsigned* spare_ = nullptr;
};
