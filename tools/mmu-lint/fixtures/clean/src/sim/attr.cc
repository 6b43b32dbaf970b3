// Clean fixture: cause names.
enum class AttrCause { kFaultAnon, kCowFault };
const char* AttrCauseName(AttrCause cause) {
  return cause == AttrCause::kFaultAnon ? "fault_anon" : "cow_fault";
}
