// ATTR-COVER-032 corpus. Kernel::NullSyscall / Mmap / CreatePipe / UserExecute / Exit are all
// registered entry points (KernelEntryPoints() in rules.cc); the helpers are plain methods
// whose attribution state is inherited along the call graph. No src/kernel/kernel.cc here,
// so the entry-point staleness check does not apply to this partial tree.

// Violation: an entry point that charges with no scope anywhere on the path.
void Kernel::NullSyscall() {
  machine_.AddCycles(Cycles(11));
}

// Quiet: the scope opens before both the charge and the helper call.
void Kernel::Mmap(uint32_t pages) {
  CycleScope syscall_scope(machine_, AttrCause::kSyscall);
  machine_.AddCycles(Cycles(5));
  ChargeBody(pages);
}

// Quiet: only ever entered with a scope already open (from Mmap).
void Kernel::ChargeBody(uint32_t pages) {
  machine_.AddCycles(Cycles(7));
}

// CreatePipe never opens a scope, so the helper below inherits the unattributed path.
void Kernel::CreatePipe() {
  ChargePipe();
}

// Violation: transitively unscoped — the diagnostic names Kernel::CreatePipe as the root.
void Kernel::ChargePipe() {
  machine_.AddCycles(Cycles(3));
}

// Quiet: audited ambient charge with a reason.
void Kernel::UserExecute(uint32_t instructions) {
  // mmu-lint-ambient(ATTR-COVER-032): user instruction time is the ambient bucket by design
  machine_.AddCycles(Cycles(instructions));
}

// Violation: a bare ambient marker has no reason — the marker line itself is the finding.
void Kernel::Exit(TaskId id) {
  // mmu-lint-ambient(ATTR-COVER-032):
  machine_.AddCycles(Cycles(300));
}
