// Fixture: dotted references in test string literals, valid and not.
#include <string>
std::string FixtureGood1() { return "hw.cycles"; }
std::string FixtureBad1() { return "hw.htab_hits"; }  // line 4: CNT-REF-030 (not in the mini list)
std::string FixtureGood2() { return "lat.fault_anon.p99"; }
std::string FixtureBad2() { return "lat.cow_fault.p42"; }  // line 6: CNT-LAT-032
std::string FixtureGood3() { return "sys.htab_valid"; }
std::string FixtureBad3() { return "sys.wat"; }  // line 8: CNT-SYS-034
std::string FixtureBad4() { return "lat.page_fault.p99"; }  // line 9: CNT-LAT-032 (retired)
std::string FixtureBad5() { return "lat.oom_rollback.count"; }  // line 10: CNT-LAT-032
std::string FixtureBad6() { return "lat.invalid.max"; }  // line 11: CNT-LAT-032
