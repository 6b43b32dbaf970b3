// Clean fixture: the reload tier walks nothing it should not.
#include "src/mmu/tlb.h"
struct CleanMmu {
  unsigned Access(unsigned ea) { return ea == 0 ? Reload(ea) : ea; }
  unsigned Reload(unsigned ea) { return SoftwareRefill(ea); }
  unsigned SoftwareRefill(unsigned ea) {
    InstallTlbEntry(ea);
    return ea;
  }
  void InstallTlbEntry(unsigned ea) { last_ = ea; }
  unsigned AccessRun(unsigned ea, unsigned n) {
    // Span replay: valid only while the side-effect-free probe finds the page resident.
    for (unsigned i = 0; i < n && resident_ == ea; ++i) {
      last_ = ea + i;
    }
    return last_;
  }
  unsigned ReplaySpan(unsigned ea, unsigned n) { return resident_ == ea ? ea + n : 0; }
  unsigned last_ = 0;
  unsigned resident_ = 0;
};
