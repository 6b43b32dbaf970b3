// Fixture: the Mmu roots, one banned token per per-body rule, and the PTE-tree ban
// following the closure into the unmarked Reload.
#include <cstdio>
#include <mutex>
struct FixtureMmu {
  unsigned Access(unsigned ea) {
    // mmu-lint-hot(HOT-CLOSURE-030): the fixture's translation root
    if (ea == 0) {
      throw ea;  // line 9: HOT-THROW-021
    }
    std::mutex m;  // line 11: HOT-LOCK-022
    printf("access %u\n", ea);  // line 12: HOT-IO-023
    return Reload(ea);
  }
  // Unmarked, but Access reaches it: the PTE-tree ban follows the closure.
  unsigned Reload(unsigned ea) {
    const unsigned pte = backing_->WalkPte(ea);  // line 17: HOT-VIRT-024
    // mmu-lint-allow(HOT-VIRT-024): the fixture's deliberate PTE write stays quiet
    return pte + backing_->MarkPteDirty(ea);
  }
  unsigned ReplaySpan(unsigned ea, unsigned gen) {  // mmu-lint-hot(HOT-CLOSURE-030): span gate
    const unsigned key = unsigned(reinterpret_cast<unsigned long>(&gen));  // line 22: SPAN-GEN-027
    long now = 0;
    clock_gettime(0, &now);  // line 24: SPAN-GEN-027
    return ea + key + gen + unsigned(now);
  }
  struct Backing {
    virtual unsigned WalkPte(unsigned vp) = 0;
    virtual unsigned MarkPteDirty(unsigned vp) = 0;
  };
  Backing* backing_ = nullptr;
};
