// Fixture: the cause-name source of truth. Literals outside AttrCauseName are not causes.
enum class AttrCause { kFaultAnon, kCowFault };
const char* AttrCauseName(AttrCause cause);
const char* EventKindName(int kind) { return kind == 0 ? "scope" : "oom_rollback"; }
const char* AttrCauseName(AttrCause cause) {
  switch (cause) {
    case AttrCause::kFaultAnon:
      return "fault_anon";
    case AttrCause::kCowFault:
      return "cow_fault";
  }
  return "invalid";
}
