// HdrSketch (obs/sketch.h): geometry pins, the quantile error bound
// against exact order statistics and the PercentileTracker cross-check,
// exact shard merging, and CSV-row reconstruction (docs/telemetry.md).
#include "obs/sketch.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"

namespace wimpy::obs {
namespace {

double BucketWidth(int index) {
  return HdrSketch::BucketUpper(index) - HdrSketch::BucketLower(index);
}

TEST(HdrSketchTest, GeometryPins) {
  // The geometry is part of the export format (name.b<idx> CSV rows), so
  // these constants are load-bearing: changing them invalidates every
  // recorded telemetry CSV.
  EXPECT_EQ(HdrSketch::kMinExp, -29);
  EXPECT_EQ(HdrSketch::kMaxExp, 20);
  EXPECT_EQ(HdrSketch::kSubBuckets, 32);
  EXPECT_EQ(HdrSketch::kOctaves, 50);
  EXPECT_EQ(HdrSketch::kBucketCount, 50 * 32 + 2);

  // Underflow: everything below 2^-30, including zero and negatives.
  EXPECT_EQ(HdrSketch::BucketIndex(0.0), 0);
  EXPECT_EQ(HdrSketch::BucketIndex(-1.0), 0);
  EXPECT_EQ(HdrSketch::BucketIndex(0x1p-31), 0);
  // Overflow: at and above 2^20.
  EXPECT_EQ(HdrSketch::BucketIndex(0x1p20), HdrSketch::kBucketCount - 1);
  EXPECT_EQ(HdrSketch::BucketIndex(1e18), HdrSketch::kBucketCount - 1);
  // 1.0 = frexp exponent 1, mantissa 0.5: first sub-bucket of that
  // octave. Octave for exponent e starts at 1 + (e - kMinExp) * 32.
  EXPECT_EQ(HdrSketch::BucketIndex(1.0), 1 + 30 * 32);
  // Smallest in-domain value: first real bucket.
  EXPECT_EQ(HdrSketch::BucketIndex(0x1p-30), 1);
}

TEST(HdrSketchTest, BucketBoundsBracketValuesAndBoundWidth) {
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform across the whole domain.
    const double v = std::exp(rng.Uniform(std::log(0x1p-30),
                                          std::log(0x1p20 * 0.999)));
    const int idx = HdrSketch::BucketIndex(v);
    ASSERT_GE(idx, 1);
    ASSERT_LT(idx, HdrSketch::kBucketCount - 1);
    EXPECT_GE(v, HdrSketch::BucketLower(idx)) << "value " << v;
    EXPECT_LT(v, HdrSketch::BucketUpper(idx)) << "value " << v;
    // Relative width bound: one linear sub-bucket of an octave is at
    // most 1/kSubBuckets of the octave's lower edge... times 2 at the
    // top of the octave, so relative to the value itself it is <= 1/16.
    EXPECT_LE(BucketWidth(idx) / v, 2.0 / HdrSketch::kSubBuckets * 1.001);
  }
  // Bucket edges tile the domain exactly.
  for (int idx = 1; idx < HdrSketch::kBucketCount - 2; ++idx) {
    EXPECT_DOUBLE_EQ(HdrSketch::BucketUpper(idx),
                     HdrSketch::BucketLower(idx + 1));
  }
}

TEST(HdrSketchTest, EmptySketchIsNaN) {
  HdrSketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_TRUE(std::isnan(sketch.Quantile(0.5)));
  EXPECT_TRUE(std::isnan(sketch.min()));
  EXPECT_TRUE(std::isnan(sketch.max()));
}

// The advertised error contract: a sketch quantile is the midpoint of
// the bucket holding the rank's order statistic, so it is within one
// bucket width of that exact order statistic.
TEST(HdrSketchTest, QuantileWithinOneBucketOfExactOrderStatistic) {
  Rng rng(42);
  HdrSketch sketch;
  std::vector<double> values;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.Exponential(1000.0);  // ~1 ms latencies
    sketch.Record(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.10, 0.50, 0.90, 0.99, 0.999}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const double exact = values[std::min(rank, values.size()) - 1];
    const double approx = sketch.Quantile(q);
    const double width = BucketWidth(HdrSketch::BucketIndex(exact));
    EXPECT_NEAR(approx, exact, width)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

// Cross-check against the repo's exact tracker (common/stats.h). The
// tracker interpolates between adjacent order statistics, each within
// one bucket of the sketch's answer, so two bucket widths (three at an
// octave boundary, where the width doubles) bound the disagreement.
TEST(HdrSketchTest, AgreesWithPercentileTracker) {
  Rng rng(7);
  HdrSketch sketch;
  PercentileTracker tracker;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.Exponential(250.0);  // ~4 ms latencies
    sketch.Record(v);
    tracker.Add(v);
  }
  for (double q : {0.50, 0.90, 0.99}) {
    const double exact = tracker.Percentile(q);
    const double approx = sketch.Quantile(q);
    const double width = BucketWidth(HdrSketch::BucketIndex(exact));
    EXPECT_NEAR(approx, exact, 3.0 * width) << "q=" << q;
  }
}

// Merge is exact: sharding a stream across sketches and merging yields
// bit-identical counts — and therefore identical quantiles — to
// recording the whole stream into one sketch. This is the property the
// RunSweep index-order merge and windowed Query both lean on.
TEST(HdrSketchTest, MergeOfShardsEqualsWholeStream) {
  constexpr int kShards = 8;
  Rng rng(123);
  HdrSketch whole;
  std::vector<HdrSketch> shards(kShards);
  for (int i = 0; i < 30000; ++i) {
    const double v = rng.Exponential(500.0);
    whole.Record(v);
    shards[i % kShards].Record(v);
  }
  HdrSketch merged;
  for (const HdrSketch& shard : shards) merged.Merge(shard);
  EXPECT_EQ(merged, whole);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  for (double q : {0.01, 0.50, 0.90, 0.99}) {
    EXPECT_DOUBLE_EQ(merged.Quantile(q), whole.Quantile(q)) << "q=" << q;
  }
}

// AddBucketCount rebuilds a sketch from exported (index, count) rows;
// the rank walk sees identical counts, so every quantile's selected
// bucket midpoint matches the original exactly (the original may clamp
// to its exact min/max, which the export carries separately).
TEST(HdrSketchTest, ReconstructionFromBucketRows) {
  Rng rng(99);
  HdrSketch original;
  for (int i = 0; i < 10000; ++i) original.Record(rng.Exponential(100.0));
  HdrSketch rebuilt;
  original.ForEachNonZero([&rebuilt](int index, std::uint64_t count) {
    rebuilt.AddBucketCount(index, count);
  });
  EXPECT_EQ(rebuilt.count(), original.count());
  for (double q : {0.05, 0.50, 0.90, 0.99}) {
    const double from_rebuilt =
        std::clamp(rebuilt.Quantile(q), original.min(), original.max());
    EXPECT_DOUBLE_EQ(from_rebuilt, original.Quantile(q)) << "q=" << q;
  }
}

TEST(HdrSketchTest, ResetKeepsGeometryDropsData) {
  HdrSketch sketch;
  sketch.Record(1.0);
  sketch.Record(2.0);
  EXPECT_EQ(sketch.count(), 2u);
  sketch.Reset();
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_TRUE(std::isnan(sketch.Quantile(0.5)));
  sketch.Record(4.0);
  EXPECT_EQ(sketch.count(), 1u);
  EXPECT_DOUBLE_EQ(sketch.min(), 4.0);
}

// Bucket rows come from CSV files, so a bad index is outside input and
// is rejected in every build type instead of writing past the counts.
TEST(HdrSketchDeathTest, OutOfRangeBucketRowAborts) {
  HdrSketch sketch;
  EXPECT_DEATH(sketch.AddBucketCount(-1, 1), "bucket index out of range");
  EXPECT_DEATH(sketch.AddBucketCount(HdrSketch::kBucketCount, 1),
               "bucket index out of range");
  sketch.AddBucketCount(HdrSketch::kBucketCount - 1, 1);
  EXPECT_EQ(sketch.count(), 1u);
}

}  // namespace
}  // namespace wimpy::obs
