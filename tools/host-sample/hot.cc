// The host_sample_selftest program: for two seconds of process CPU time it calls
// HostSampleHot and HostSampleCold, which take nine and one tenths of that time, both inside
// the forced-inline HostSampleChain. Running for a fixed CPU time rather than a fixed amount
// of work keeps the sample count independent of the host's speed. A sampler and symbolizer
// that charge samples correctly put HostSampleHot above half of the samples as the
// outermost function, and HostSampleChain first as the innermost frame. The functions have
// external linkage: GNU addr2line 2.40 names an inline frame of an internal-linkage
// function after its caller.

#include <cstdint>
#include <cstdio>
#include <ctime>

// A dependent multiply-add chain: no closed form, and nothing to vectorize.
[[gnu::always_inline]] inline uint64_t HostSampleChain(uint64_t seed, uint64_t n) {
  uint64_t x = seed;
  for (uint64_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + i;
  }
  return x;
}

[[gnu::noinline]] uint64_t HostSampleHot(uint64_t seed) {
  return HostSampleChain(seed, 9'000'000);
}

[[gnu::noinline]] uint64_t HostSampleCold(uint64_t seed) {
  return HostSampleChain(seed, 1'000'000);
}

int main(int argc, char** /*argv*/) {
  uint64_t x = static_cast<uint64_t>(argc);
  // std::clock() is the process's CPU time.
  while (std::clock() < 2 * CLOCKS_PER_SEC) {
    x = HostSampleHot(x) ^ HostSampleCold(x);
  }
  std::printf("%llu\n", static_cast<unsigned long long>(x));
  return 0;
}
