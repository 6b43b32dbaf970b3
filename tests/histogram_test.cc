// LatencyHistogram tests: log2 bucketing edges, percentile math at bucket boundaries,
// clamping to the observed max, merge and clear.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/sim/histogram.h"

namespace ppcmm {
namespace {

TEST(HistogramTest, BucketEdges) {
  // Bucket 0 holds the value 0; bucket k >= 1 holds [2^(k-1), 2^k - 1].
  static_assert(LatencyHistogram::BucketOf(0) == 0);
  static_assert(LatencyHistogram::BucketOf(1) == 1);
  static_assert(LatencyHistogram::BucketOf(2) == 2);
  static_assert(LatencyHistogram::BucketOf(3) == 2);
  static_assert(LatencyHistogram::BucketOf(4) == 3);
  static_assert(LatencyHistogram::BucketOf(7) == 3);
  static_assert(LatencyHistogram::BucketOf(8) == 4);
  static_assert(LatencyHistogram::BucketLowerEdge(0) == 0);
  static_assert(LatencyHistogram::BucketUpperEdge(0) == 0);
  static_assert(LatencyHistogram::BucketLowerEdge(3) == 4);
  static_assert(LatencyHistogram::BucketUpperEdge(3) == 7);
  // Every value lands inside its bucket's [lower, upper] range.
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{255},
                     uint64_t{256}, uint64_t{1} << 40, ~uint64_t{0}}) {
    const uint32_t b = LatencyHistogram::BucketOf(v);
    EXPECT_GE(v, LatencyHistogram::BucketLowerEdge(b)) << v;
    EXPECT_LE(v, LatencyHistogram::BucketUpperEdge(b)) << v;
  }
  // The last bucket is open-ended: enormous values don't fall off the array.
  EXPECT_EQ(LatencyHistogram::BucketOf(~uint64_t{0}), LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::BucketUpperEdge(LatencyHistogram::kBuckets - 1), ~uint64_t{0});
}

TEST(HistogramTest, EmptyHistogram) {
  const LatencyHistogram h;
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(1.0), 0u);
}

TEST(HistogramTest, BasicStats) {
  LatencyHistogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_EQ(h.TotalCount(), 3u);
  EXPECT_EQ(h.Sum(), 60u);
  EXPECT_EQ(h.Min(), 10u);
  EXPECT_EQ(h.Max(), 30u);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
}

TEST(HistogramTest, PercentileAtBucketEdges) {
  LatencyHistogram h;
  // 1 -> bucket 1 [1,1]; 2,3 -> bucket 2 [2,3]; 4 -> bucket 3 [4,7].
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(4);
  // rank(0.25) = 1 -> first sample -> bucket 1's upper edge.
  EXPECT_EQ(h.Percentile(0.25), 1u);
  // rank(0.5) = 2 -> bucket 2, upper edge 3.
  EXPECT_EQ(h.Percentile(0.5), 3u);
  // rank(0.75) = 3 -> still bucket 2.
  EXPECT_EQ(h.Percentile(0.75), 3u);
  // rank(1.0) = 4 -> bucket 3's upper edge is 7 but clamps to the observed max.
  EXPECT_EQ(h.Percentile(1.0), 4u);
  EXPECT_EQ(h.Percentile(1.0), h.Max());
  // Out-of-range p clamps.
  EXPECT_EQ(h.Percentile(-1.0), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(2.0), h.Percentile(1.0));
}

TEST(HistogramTest, PercentileOfZeros) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(0);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
  EXPECT_EQ(h.CountInBucket(0), 2u);
}

TEST(HistogramTest, PercentileClampsToObservedMax) {
  LatencyHistogram h;
  h.Record(1000);  // bucket upper edge is 1023
  EXPECT_EQ(h.Percentile(0.99), 1000u);
  EXPECT_EQ(h.Percentile(0.5), 1000u);
}

TEST(HistogramTest, SingleSampleAllPercentilesEqualIt) {
  LatencyHistogram h;
  h.Record(137);
  for (double p : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.Percentile(p), 137u) << p;
  }
}

TEST(HistogramTest, MergeCombines) {
  LatencyHistogram a;
  a.Record(5);
  a.Record(100);
  LatencyHistogram b;
  b.Record(2);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.TotalCount(), 4u);
  EXPECT_EQ(a.Sum(), 1107u);
  EXPECT_EQ(a.Min(), 2u);
  EXPECT_EQ(a.Max(), 1000u);
  // Merging an empty histogram changes nothing.
  a.Merge(LatencyHistogram{});
  EXPECT_EQ(a.TotalCount(), 4u);
  EXPECT_EQ(a.Min(), 2u);
}

TEST(HistogramTest, ClearResets) {
  LatencyHistogram h;
  h.Record(42);
  h.Clear();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.CountInBucket(LatencyHistogram::BucketOf(42)), 0u);
}

}  // namespace
}  // namespace ppcmm
