// Interface through which MMU-level data structures (hashed page table, PTE tree) charge the
// memory references their searches perform.
//
// The concrete implementation decides whether those references go through the data cache or
// bypass it — the §8 "cache misuse on page-tables" experiment is implemented entirely by
// swapping that decision.

#ifndef PPCMM_SRC_SIM_MEM_CHARGE_H_
#define PPCMM_SRC_SIM_MEM_CHARGE_H_

#include "src/sim/phys_addr.h"

namespace ppcmm {

// Charges simulated memory references to the machine.
class MemCharger {
 public:
  virtual ~MemCharger() = default;

  // Charges one reference to `pa`. Implementations route it through the data cache or around
  // it (cache-inhibited) according to the active policy.
  virtual void Charge(PhysAddr pa, bool is_write) = 0;

  // Charges `count` references starting at `pa`, each `stride` bytes after the previous —
  // equivalent to `count` Charge calls in address order. Chargers that route through the
  // cache override this with the machine's run primitive; the default keeps per-reference
  // counting chargers exact.
  virtual void ChargeRun(PhysAddr pa, uint32_t stride, uint32_t count, bool is_write) {
    for (uint32_t i = 0; i < count; ++i) {
      Charge(pa + i * stride, is_write);
    }
  }
};

// A MemCharger that counts references but charges nothing — used by pure occupancy probes
// and by tests that want functional behaviour without timing side effects.
class NullMemCharger : public MemCharger {
 public:
  void Charge(PhysAddr, bool) override { ++refs_; }
  uint64_t refs() const { return refs_; }

 private:
  uint64_t refs_ = 0;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_SIM_MEM_CHARGE_H_
