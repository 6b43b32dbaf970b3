// host-sample's sampler, loaded into the program under test with LD_PRELOAD. A POSIX timer
// on the process CPU-time clock raises SIGPROF every millisecond of CPU time, and the
// handler records the interrupted instruction pointer. The kernel checks that clock on its
// scheduler tick, so on a kernel with a tick longer than a millisecond the samples come once
// per tick.
// At exit the samples go to the file named by HOST_SAMPLE_OUT, after a copy of
// /proc/self/maps, which the symbolizer (tools/host-sample/host-sample) needs to turn
// addresses into an object file and an offset. Without HOST_SAMPLE_OUT nothing happens.
// The variable is removed from the environment at start, so programs the sampled one
// executes do not overwrite the file.
//
// Only the interrupted address is kept, no call stack: a sample charges the function (and
// the inline frames) it landed in, never its callers. Process-directed signals land on
// whichever thread the kernel picks, so a multi-threaded program's samples are not split
// by thread.

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

// Room for over an hour of CPU time; later samples are counted as dropped.
constexpr size_t kMaxSamples = size_t{1} << 22;

uintptr_t* g_samples = nullptr;
std::atomic<size_t> g_taken{0};
timer_t g_timer{};
bool g_armed = false;
char g_out[4096];

uintptr_t InterruptedPc(const ucontext_t* uc) {
#if defined(__x86_64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.pc);
#else
#error "host-sample reads the interrupted PC on x86-64 and AArch64 only"
#endif
}

void OnProfile(int /*sig*/, siginfo_t* /*info*/, void* context) {
  const size_t i = g_taken.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    g_samples[i] = InterruptedPc(static_cast<const ucontext_t*>(context));
  }
}

// Buffered output to one file descriptor; the first failed write sticks.
class Output {
 public:
  explicit Output(int fd) : fd_(fd) {}
  void Append(const char* data, size_t n) {
    if (used_ + n > sizeof buf_) {
      Flush();
    }
    if (n > sizeof buf_) {
      Write(data, n);
      return;
    }
    std::memcpy(buf_ + used_, data, n);
    used_ += n;
  }
  bool Flush() {
    Write(buf_, used_);
    used_ = 0;
    return ok_;
  }

 private:
  void Write(const char* data, size_t n) {
    while (ok_ && n > 0) {
      const ssize_t w = write(fd_, data, n);
      ok_ = w > 0;
      data += ok_ ? w : 0;
      n -= ok_ ? static_cast<size_t>(w) : n;
    }
  }

  int fd_;
  bool ok_ = true;
  size_t used_ = 0;
  char buf_[1 << 16];
};

[[gnu::constructor]] void Start() {
  const char* out = std::getenv("HOST_SAMPLE_OUT");
  if (out == nullptr || *out == '\0') {
    return;
  }
  const size_t out_len = std::strlen(out);
  if (out_len >= sizeof g_out) {
    std::fprintf(stderr, "host-sample: HOST_SAMPLE_OUT is too long\n");
    std::_Exit(2);
  }
  std::memcpy(g_out, out, out_len + 1);
  unsetenv("HOST_SAMPLE_OUT");
  void* buffer = mmap(nullptr, kMaxSamples * sizeof(uintptr_t), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buffer == MAP_FAILED) {
    std::perror("host-sample: mmap");
    std::_Exit(2);
  }
  g_samples = static_cast<uintptr_t*>(buffer);
  struct sigaction action = {};
  action.sa_sigaction = OnProfile;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigevent event = {};
  event.sigev_notify = SIGEV_SIGNAL;
  event.sigev_signo = SIGPROF;
  itimerspec spec = {};
  spec.it_interval.tv_nsec = 1'000'000;
  spec.it_value = spec.it_interval;
  if (sigaction(SIGPROF, &action, nullptr) != 0 ||
      timer_create(CLOCK_PROCESS_CPUTIME_ID, &event, &g_timer) != 0 ||
      timer_settime(g_timer, 0, &spec, nullptr) != 0) {
    std::perror("host-sample: arming the CPU-time timer");
    std::_Exit(2);
  }
  g_armed = true;
}

[[gnu::destructor]] void Stop() {
  if (!g_armed) {
    return;
  }
  timer_delete(g_timer);
  g_armed = false;
  const size_t taken = g_taken.load(std::memory_order_relaxed);
  const size_t kept = taken < kMaxSamples ? taken : kMaxSamples;
  const int fd = open(g_out, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    std::perror("host-sample: opening HOST_SAMPLE_OUT");
    return;
  }
  static Output out(fd);  // static: its 64 KB buffer stays off the stack
  char line[64];
  int n = std::snprintf(line, sizeof line, "host-sample 1\ndropped %zu\n", taken - kept);
  out.Append(line, static_cast<size_t>(n));
  const int maps = open("/proc/self/maps", O_RDONLY);
  if (maps >= 0) {
    char buf[4096];
    ssize_t r = 0;
    while ((r = read(maps, buf, sizeof buf)) > 0) {
      out.Append(buf, static_cast<size_t>(r));
    }
    close(maps);
  }
  for (size_t i = 0; i < kept; ++i) {
    n = std::snprintf(line, sizeof line, "pc %jx\n", static_cast<uintmax_t>(g_samples[i]));
    out.Append(line, static_cast<size_t>(n));
  }
  if (!out.Flush()) {
    std::perror("host-sample: writing HOST_SAMPLE_OUT");
  }
  close(fd);
}

}  // namespace
