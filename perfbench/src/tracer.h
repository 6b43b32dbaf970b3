// Host-time spans recorded from outside the simulator.
//
// Every timed call the benchmark makes into the library (a Kernel entry point, a System
// constructor or destructor, one LmBench test, one sweep) opens a Span; every workload
// operation opens an op span around them. Spans stay in memory: per-layer aggregates
// (calls, total and self time, a bounded duration sample) are kept for every span, and
// the raw records up to a cap, written out as a Chrome trace-event file at exit.
//
// A layer's self time is its duration minus the time its child spans cover. A Tracer is
// single-threaded; parallel work records into its own Tracer and is merged afterwards.

#ifndef PERFBENCH_SRC_TRACER_H_
#define PERFBENCH_SRC_TRACER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// X(enumerator, metric prefix). The order is the output order.
#define PERFBENCH_LAYERS(X)                                    \
  X(kOp, "bench.op")                                           \
  X(kSystemCtor, "core.system_ctor")                           \
  X(kSystemDtor, "core.system_dtor")                           \
  X(kUserTouch, "kernel.user_touch")                           \
  X(kUserTouchRun, "kernel.user_touch_run")                    \
  X(kUserExecute, "kernel.user_execute")                       \
  X(kMmap, "kernel.mmap")                                      \
  X(kMunmap, "kernel.munmap")                                  \
  X(kFork, "kernel.fork")                                      \
  X(kExec, "kernel.exec")                                      \
  X(kExit, "kernel.exit")                                      \
  X(kFileRead, "kernel.file_read")                             \
  X(kFileWrite, "kernel.file_write")                           \
  X(kRunIdle, "kernel.run_idle")                               \
  X(kSwitchTo, "kernel.switch_to")                             \
  X(kSwitchCpu, "kernel.switch_cpu")                           \
  X(kLmNullSyscall, "workloads.lmbench.null_syscall")          \
  X(kLmContextSwitch, "workloads.lmbench.context_switch")      \
  X(kLmPipeLatency, "workloads.lmbench.pipe_latency")          \
  X(kLmPipeBandwidth, "workloads.lmbench.pipe_bandwidth")      \
  X(kLmFileReread, "workloads.lmbench.file_reread")            \
  X(kLmMmapLatency, "workloads.lmbench.mmap_latency")          \
  X(kLmProcessStart, "workloads.lmbench.process_start")        \
  X(kSweepMap, "sim.sweep.map")

enum class Layer : uint8_t {
#define PERFBENCH_LAYER_ENUM(name, prefix) name,
  PERFBENCH_LAYERS(PERFBENCH_LAYER_ENUM)
#undef PERFBENCH_LAYER_ENUM
      kNumLayers,
};

inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kNumLayers);

const char* LayerName(Layer layer);

// Host nanoseconds since the process started (steady clock, shared by all threads).
uint64_t NowNs();

// Aggregates for one layer.
struct LayerStats {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint64_t seen = 0;               // durations offered to the sample
  std::vector<uint32_t> samples;   // duration sample in ns, at most kMaxSamples

  static constexpr size_t kMaxSamples = 1 << 16;
  void AddSample(uint64_t ns);
  // Nearest-rank percentile of the sample in microseconds (0 when empty).
  double PercentileUs(double q) const;
};

class Tracer {
 public:
  static constexpr uint32_t kNoSpan = 0xFFFFFFFFu;
  static constexpr size_t kMaxSpans = 100000;

  explicit Tracer(uint32_t thread = 0) : thread_(thread) {}

  void Begin(Layer layer);
  void End();
  // Ops started from now on carry this id.
  void SetOp(uint32_t op) { op_ = op; }

  // Folds a finished Tracer (no open spans) into this one. Its root spans become children
  // of this Tracer's innermost open span in the written trace; they do not count against
  // that span's self time, because they may have run in parallel with each other.
  void Merge(const Tracer& other);

  const LayerStats& stats(Layer layer) const { return stats_[static_cast<size_t>(layer)]; }
  size_t span_count() const { return spans_.size(); }
  uint64_t dropped_spans() const { return dropped_; }

  // Writes the recorded spans as a Chrome trace-event JSON document (chrome://tracing,
  // Perfetto). `metadata_json` is a JSON object stored under "metadata".
  bool WriteChromeTrace(const std::string& path, const std::string& metadata_json) const;

 private:
  struct Open {
    Layer layer;
    uint64_t start_ns;
    uint64_t child_ns;
    uint32_t index;
  };
  struct SpanRecord {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint32_t parent = kNoSpan;
    uint32_t op = 0;
    uint32_t thread = 0;
    Layer layer = Layer::kOp;
  };

  uint32_t thread_;
  uint32_t op_ = 0;
  std::vector<Open> stack_;
  std::array<LayerStats, kNumLayers> stats_;
  std::vector<SpanRecord> spans_;
  uint64_t dropped_ = 0;
};

// RAII span; a null tracer makes it free apart from one branch.
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(layer);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACER_H_
