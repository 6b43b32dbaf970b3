// Fixture: the pure-translation tier dispatching into the PTE tree; ProbePtr is
// deliberately missing so HOT-MISSING-025 proves the rule table cannot rot silently.
struct FixtureTlb {
  const unsigned* LookupPtr(unsigned vp) {
    last_ = backing_->WalkPte(vp);  // line 5: HOT-VIRT-024
    return &last_;
  }
  struct Backing {
    virtual unsigned WalkPte(unsigned vp) = 0;
  };
  void TouchLruRun(unsigned vp, unsigned n) { lru_ = vp + n; }
  Backing* backing_ = nullptr;
  unsigned last_ = 0;
  unsigned lru_ = 0;
};
