#include "perfbench/src/tracer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch = std::chrono::steady_clock::now();

// SplitMix64 finalizer: a reproducible stand-in for a random draw in reservoir sampling.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[] = {
#define PERFBENCH_LAYER_NAME(name, prefix) prefix,
      PERFBENCH_LAYERS(PERFBENCH_LAYER_NAME)
#undef PERFBENCH_LAYER_NAME
  };
  return kNames[static_cast<size_t>(layer)];
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - kEpoch)
                                   .count());
}

void LayerStats::AddSample(uint64_t ns) {
  const uint32_t clamped = static_cast<uint32_t>(std::min<uint64_t>(ns, 0xFFFFFFFFu));
  ++seen;
  if (samples.size() < kMaxSamples) {
    samples.push_back(clamped);
    return;
  }
  const uint64_t slot = Mix(seen) % seen;  // Algorithm R: keep with probability k/seen
  if (slot < kMaxSamples) {
    samples[slot] = clamped;
  }
}

double LayerStats::PercentileUs(double q) const {
  if (samples.empty()) {
    return 0.0;
  }
  std::vector<uint32_t> sorted = samples;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  const size_t index = std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(index),
                   sorted.end());
  return static_cast<double>(sorted[index]) / 1000.0;
}

void Tracer::Begin(Layer layer) {
  uint32_t index = kNoSpan;
  if (spans_.size() < kMaxSpans) {
    index = static_cast<uint32_t>(spans_.size());
    SpanRecord record;
    record.parent = stack_.empty() ? kNoSpan : stack_.back().index;
    record.op = op_;
    record.thread = thread_;
    record.layer = layer;
    spans_.push_back(record);
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{layer, NowNs(), 0, index});
}

void Tracer::End() {
  const uint64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const uint64_t duration = end - open.start_ns;
  LayerStats& stats = stats_[static_cast<size_t>(open.layer)];
  ++stats.calls;
  stats.total_ns += duration;
  stats.self_ns += duration > open.child_ns ? duration - open.child_ns : 0;
  stats.AddSample(duration);
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (open.index != kNoSpan) {
    spans_[open.index].start_ns = open.start_ns;
    spans_[open.index].end_ns = end;
  }
}

void Tracer::Merge(const Tracer& other) {
  for (size_t i = 0; i < kNumLayers; ++i) {
    const LayerStats& from = other.stats_[i];
    LayerStats& to = stats_[i];
    to.calls += from.calls;
    to.total_ns += from.total_ns;
    to.self_ns += from.self_ns;
    for (const uint32_t ns : from.samples) {
      to.AddSample(ns);
    }
  }
  const uint32_t parent = stack_.empty() ? kNoSpan : stack_.back().index;
  const uint32_t base = static_cast<uint32_t>(spans_.size());
  for (const SpanRecord& span : other.spans_) {
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      continue;
    }
    SpanRecord copy = span;
    copy.parent = span.parent == kNoSpan ? parent : base + span.parent;
    spans_.push_back(copy);
  }
  dropped_ += other.dropped_;
}

bool Tracer::WriteChromeTrace(const std::string& path, const std::string& metadata_json) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"metadata\":%s,\"dropped_spans\":%llu,\"traceEvents\":[\n",
               metadata_json.c_str(), static_cast<unsigned long long>(dropped_));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const long long parent = s.parent == kNoSpan ? -1 : static_cast<long long>(s.parent);
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,\"op\":%u}}\n",
                 i == 0 ? "" : ",", LayerName(s.layer), s.thread,
                 static_cast<double>(s.start_ns) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0, i, parent, s.op);
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
