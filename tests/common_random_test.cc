#include "common/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace wimpy {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.NextBelow(17), 17u);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.005);
}

TEST(RngTest, NormalMeanAndSpread) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, LogNormalMeanStdMatchesTarget) {
  Rng rng(19);
  double sum = 0, sq = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.LogNormalMeanStd(5.0, 1.5);
    EXPECT_GT(x, 0.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 1.5, 0.1);
}

TEST(RngTest, ForkedStreamsAreIndependentAndDeterministic) {
  Rng root1(42), root2(42);
  Rng a1 = root1.Fork();
  Rng b1 = root1.Fork();
  Rng a2 = root2.Fork();
  Rng b2 = root2.Fork();
  // Same tree position -> same stream.
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a1.Next(), a2.Next());
    EXPECT_EQ(b1.Next(), b2.Next());
  }
  // Sibling streams differ.
  Rng a3 = Rng(42).Fork();
  Rng b3 = [&] {
    Rng r(42);
    r.Fork();
    return r.Fork();
  }();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a3.Next() == b3.Next();
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace wimpy
