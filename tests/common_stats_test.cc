#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.h"
#include "common/random.h"
#include "common/summary.h"

namespace wimpy {
namespace {

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(OnlineStatsTest, BasicMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

// Merging per-shard accumulators must agree with Summarize over the
// concatenated sample set — the invariant parallel sweeps rely on.
TEST(OnlineStatsTest, MergeMatchesSummarize) {
  std::vector<double> samples;
  OnlineStats a, b;
  for (int i = 0; i < 25; ++i) {
    const double x = 0.1 * i * i - 1.5 * i + 3.0;
    samples.push_back(x);
    (i < 10 ? a : b).Add(x);
  }
  a.Merge(b);
  const MetricSummary summary = Summarize(samples);
  EXPECT_EQ(summary.count, a.count());
  EXPECT_NEAR(summary.mean, a.mean(), 1e-12);
}

TEST(OnlineStatsTest, MergeEqualsSingleStream) {
  OnlineStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37 - 5;
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(OnlineStatsTest, MergeWithEmptySides) {
  OnlineStats a, b;
  a.Add(1.0);
  a.Merge(b);  // merging empty is a no-op
  EXPECT_EQ(a.count(), 1u);
  b.Merge(a);  // merging into empty copies
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 1.0);
}

TEST(PercentileTrackerTest, ExactQuartiles) {
  PercentileTracker t;
  for (int i = 100; i >= 1; --i) t.Add(i);  // 1..100, reverse order
  EXPECT_DOUBLE_EQ(t.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(t.Percentile(1.0), 100.0);
  EXPECT_NEAR(t.Median(), 50.5, 1e-12);
  EXPECT_NEAR(t.Percentile(0.99), 99.01, 1e-9);
}

TEST(PercentileTrackerTest, EmptyReturnsNaN) {
  // NaN, never 0: a zero p99 from an empty tracker would vacuously pass
  // any SLO gate. Callers feeding bench JSON must check empty() first.
  PercentileTracker t;
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(std::isnan(t.Percentile(0.0)));
  EXPECT_TRUE(std::isnan(t.Percentile(0.5)));
  EXPECT_TRUE(std::isnan(t.Percentile(1.0)));
  EXPECT_TRUE(std::isnan(t.Median()));
  t.Add(3.0);
  EXPECT_FALSE(t.empty());
  EXPECT_DOUBLE_EQ(t.Percentile(0.5), 3.0);
}

TEST(PercentileTrackerTest, QuantileClampedToUnitInterval) {
  PercentileTracker t;
  t.Add(1.0);
  t.Add(2.0);
  t.Add(3.0);
  EXPECT_DOUBLE_EQ(t.Percentile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(t.Percentile(1.5), 3.0);
}

TEST(PercentileTrackerTest, SingleSampleIsEveryPercentile) {
  PercentileTracker t;
  t.Add(42.0);
  EXPECT_DOUBLE_EQ(t.Percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(t.Percentile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(t.Percentile(0.99), 42.0);
  EXPECT_DOUBLE_EQ(t.Percentile(1.0), 42.0);
}

TEST(PercentileTrackerTest, OutOfRangeQuantileClamps) {
  PercentileTracker t;
  t.Add(1.0);
  t.Add(2.0);
  EXPECT_DOUBLE_EQ(t.Percentile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(t.Percentile(1.5), 2.0);
}

TEST(PercentileTrackerTest, DuplicatesInterpolateFlat) {
  PercentileTracker t;
  for (int i = 0; i < 4; ++i) t.Add(5.0);
  t.Add(10.0);
  // Sorted: 5 5 5 5 10. Positions 0..3 are all 5, so any quantile that
  // lands strictly inside them is exactly 5.
  EXPECT_DOUBLE_EQ(t.Percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(t.Percentile(0.75), 5.0);
  EXPECT_DOUBLE_EQ(t.Percentile(1.0), 10.0);
  // 0.9 lands at position 3.6: 60% of the way from the last 5 to the 10.
  EXPECT_NEAR(t.Percentile(0.9), 8.0, 1e-12);
}

TEST(PercentileTrackerTest, AddAfterQueryResorts) {
  PercentileTracker t;
  t.Add(10.0);
  EXPECT_DOUBLE_EQ(t.Median(), 10.0);
  t.Add(0.0);
  t.Add(20.0);
  EXPECT_DOUBLE_EQ(t.Median(), 10.0);
  EXPECT_DOUBLE_EQ(t.Percentile(0.0), 0.0);
}

TEST(PercentileTrackerDeathTest, NaNSampleAborts) {
  PercentileTracker t;
  t.Add(1.0);
  EXPECT_DEATH(t.Add(std::numeric_limits<double>::quiet_NaN()),
               "NaN sample");
}

// Sort-then-interpolate on sorted samples: the reference formula that
// PercentileTracker's selection must match bit for bit.
double InterpolateSorted(const std::vector<double>& sorted, double q) {
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

constexpr double kQuantiles[] = {0.0, 0.5, 0.9, 0.99, 0.999, 1.0, -1.0, 2.0};

// Continuous latencies; heavy duplicates (four distinct values); mixed
// signs; and duplicates with both infinities among them.
double DrawSample(int kind, Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (kind) {
    case 0: return rng.Exponential(1000.0);
    case 1: return static_cast<double>(rng.UniformInt(1, 4)) * 0.25;
    case 2: return rng.Normal(0.0, 5.0);
    default: {
      const std::int64_t k = rng.UniformInt(0, 9);
      return k == 0 ? -kInf : k == 9 ? kInf : static_cast<double>(k % 3);
    }
  }
}

void ExpectMatchesSortedReference(const PercentileTracker& t,
                                  const std::vector<double>& sorted,
                                  double q) {
  const double want = InterpolateSorted(sorted, q);
  const double got = t.Percentile(q);
  ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << "n=" << sorted.size() << " q=" << q << " got " << got << " want "
      << want;
}

// Adds n samples of `kind` to a fresh tracker, then queries every quantile
// in turn on it.
void ExpectFreshTrackerMatches(int kind, std::size_t n, Rng& rng) {
  std::vector<double> samples(n);
  PercentileTracker t;
  for (double& x : samples) {
    x = DrawSample(kind, rng);
    t.Add(x);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : kQuantiles) {
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesSortedReference(t, samples, q));
  }
}

// Every size 1..2000 on a fresh tracker, and one tracker grown through
// the same sizes and queried after every Add, so its queries start from
// data earlier selections reordered.
TEST(PercentileTrackerTest, SelectionMatchesSortBitForBit) {
  for (int kind = 0; kind < 4; ++kind) {
    Rng rng(1234 + kind);
    PercentileTracker grown;
    std::vector<double> sorted;
    for (std::size_t n = 1; n <= 2000; ++n) {
      const double x = DrawSample(kind, rng);
      grown.Add(x);
      sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), x), x);
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesSortedReference(
          grown, sorted, kQuantiles[n % std::size(kQuantiles)]));
      ASSERT_NO_FATAL_FAILURE(ExpectFreshTrackerMatches(kind, n, rng));
    }
  }
}

// Sizes around the 4096-sample storage blocks' edges, and 100,000 (a kv
// replication's tracker).
TEST(PercentileTrackerTest, SelectionMatchesSortBitForBitAcrossBlocks) {
  for (int kind = 0; kind < 4; ++kind) {
    Rng rng(99 + kind);
    for (std::size_t n : {4095, 4096, 4097, 8193, 100000}) {
      ASSERT_NO_FATAL_FAILURE(ExpectFreshTrackerMatches(kind, n, rng));
    }
  }
}

TEST(TimeWeightedAverageTest, PiecewiseConstantIntegral) {
  TimeWeightedAverage twa;
  twa.Set(0.0, 10.0);  // 10 W for 2 s
  twa.Set(2.0, 50.0);  // 50 W for 3 s
  EXPECT_DOUBLE_EQ(twa.IntegralUntil(5.0), 10.0 * 2 + 50.0 * 3);
  EXPECT_DOUBLE_EQ(twa.AverageUntil(5.0), 170.0 / 5.0);
  EXPECT_DOUBLE_EQ(twa.current(), 50.0);
}

TEST(TimeWeightedAverageTest, NoElapsedTimeUsesCurrent) {
  TimeWeightedAverage twa;
  twa.Set(3.0, 7.0);
  EXPECT_DOUBLE_EQ(twa.AverageUntil(3.0), 7.0);
  EXPECT_DOUBLE_EQ(twa.IntegralUntil(3.0), 0.0);
}

TEST(LinearHistogramTest, BucketsAndOverflow) {
  LinearHistogram h(0.0, 10.0, 10);
  h.Add(0.5);
  h.Add(0.7);
  h.Add(5.5);
  h.Add(25.0);
  h.Add(-1.0);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.BucketValue(0), 2u);
  EXPECT_EQ(h.BucketValue(5), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.ArgMaxBucket(), 0u);
  EXPECT_DOUBLE_EQ(h.BucketLow(5), 5.0);
  EXPECT_DOUBLE_EQ(h.BucketHigh(5), 6.0);
}

TEST(LinearHistogramTest, AsciiRenderingContainsBars) {
  LinearHistogram h(0.0, 4.0, 4);
  for (int i = 0; i < 8; ++i) h.Add(1.5);
  h.Add(3.5);
  const std::string art = h.ToAscii(10);
  EXPECT_NE(art.find("##########"), std::string::npos);
  EXPECT_NE(art.find("3.000"), std::string::npos);
}

TEST(LinearHistogramTest, EmptyHistogramRendersNoBucketRows) {
  LinearHistogram h(0.0, 4.0, 4);
  const std::string art = h.ToAscii(10);
  // No spurious "[0.000, 1.000) 0" row for a histogram nothing was added
  // to — just the empty note.
  EXPECT_EQ(art.find('['), std::string::npos);
  EXPECT_NE(art.find("no in-range samples"), std::string::npos);
}

TEST(LinearHistogramTest, OnlyOverflowRendersNoBucketRows) {
  LinearHistogram h(0.0, 4.0, 4);
  h.Add(100.0);
  const std::string art = h.ToAscii(10);
  EXPECT_EQ(art.find('['), std::string::npos);
  EXPECT_NE(art.find("overflow: 1"), std::string::npos);
}

TEST(LinearHistogramTest, ArgMaxOfEmptyIsEndSentinel) {
  LinearHistogram h(0.0, 4.0, 4);
  EXPECT_EQ(h.ArgMaxBucket(), h.bucket_count());
  h.Add(-1.0);   // underflow only: buckets still all empty
  h.Add(100.0);  // overflow only
  EXPECT_EQ(h.ArgMaxBucket(), h.bucket_count());
  h.Add(2.5);
  EXPECT_EQ(h.ArgMaxBucket(), 2u);
}

TEST(LinearHistogramTest, MergeAddsCountsAndOverflow) {
  LinearHistogram a(0.0, 10.0, 10);
  LinearHistogram b(0.0, 10.0, 10);
  a.Add(1.5);
  a.Add(-2.0);
  b.Add(1.5);
  b.Add(7.5);
  b.Add(25.0);
  a.Merge(b);
  EXPECT_EQ(a.total(), 5u);
  EXPECT_EQ(a.BucketValue(1), 2u);
  EXPECT_EQ(a.BucketValue(7), 1u);
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 1u);
}

// Geometry is checked in every build type: fig10_11 merges per-replication
// histograms, and a mismatched geometry would silently mis-merge.
TEST(LinearHistogramDeathTest, BadGeometryAbortsAtConstruction) {
  EXPECT_DEATH(LinearHistogram(1.0, 1.0, 4), "hi must be > lo");
  EXPECT_DEATH(LinearHistogram(2.0, 1.0, 4), "hi must be > lo");
  EXPECT_DEATH(LinearHistogram(0.0, 1.0, 0), "num_buckets must be > 0");
}

TEST(LinearHistogramDeathTest, MergeOfDifferentGeometryAborts) {
  LinearHistogram h(0.0, 8.0, 32);
  EXPECT_DEATH(h.Merge(LinearHistogram(1.0, 9.0, 32)), "lo differs");
  EXPECT_DEATH(h.Merge(LinearHistogram(0.0, 16.0, 32)),
               "bucket width differs");
  EXPECT_DEATH(h.Merge(LinearHistogram(0.0, 16.0, 64)),
               "bucket count differs");
  h.Merge(LinearHistogram(0.0, 8.0, 32));  // same geometry still merges
  EXPECT_EQ(h.bucket_count(), 32u);
}

}  // namespace
}  // namespace wimpy
