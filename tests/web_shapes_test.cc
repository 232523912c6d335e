// Shape tests for the paper's web-service phenomena: the Table 7 delay
// decomposition trends and the Figure 10/11 SYN-backoff delay spikes.
// These assert the *mechanisms*, at reduced scale so they stay fast.
#include <gtest/gtest.h>

#include "web/service.h"

namespace wimpy::web {
namespace {

TEST(WebShapeTest, CacheDelayGrowsFasterThanDbDelayUnderLoad) {
  // Table 7: on Edison, cache-fetch delay blows up with request rate
  // while database delay (served by the Dell MySQL pair) only creeps.
  WebExperiment exp(EdisonWebTestbed(6, 3));
  const OpenLoopReport light =
      exp.MeasureOpenLoop(HeavyMix(), 120, Seconds(8));
  // Near this quarter-cluster's capacity (~2k rps), the three cache
  // nodes' NICs carry ~50% load and queueing sets in.
  const OpenLoopReport heavy =
      exp.MeasureOpenLoop(HeavyMix(), 1950, Seconds(8));
  ASSERT_GT(light.cache_delay.count(), 100u);
  ASSERT_GT(heavy.cache_delay.count(), 100u);
  const double cache_growth =
      heavy.cache_delay.mean() / light.cache_delay.mean();
  const double db_growth = heavy.db_delay.mean() / light.db_delay.mean();
  // Direction of Table 7: the cache path (Edison NICs + in-cluster
  // latency) degrades with load while the DB path (Dell MySQL pair)
  // barely moves. The paper's measured magnitude (45x at full scale) is
  // larger than this model reproduces — see EXPERIMENTS.md.
  EXPECT_GT(cache_growth, 1.12);
  EXPECT_GT(cache_growth, db_growth);
}

TEST(WebShapeTest, DellOverloadProducesSecondSpikeNearOneSecond) {
  // Figure 11: fresh-connection clients against 2 Dell servers at a rate
  // beyond their accept capacity see SYN retransmissions; the delay
  // histogram grows a secondary mode near 1 s.
  WebExperiment exp(DellWebTestbed(2, 1));
  const OpenLoopReport report =
      exp.MeasureOpenLoop(LightMix(), 2600, Seconds(10));
  const LinearHistogram& h = report.delay_histogram;
  ASSERT_GT(h.total(), 1000u);
  // Mass in the 1 s +/- 0.25 s region (buckets 3..4 of 32 over [0,8)).
  std::size_t near_one = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (h.BucketLow(i) >= 0.75 && h.BucketHigh(i) <= 1.5) {
      near_one += h.BucketValue(i);
    }
  }
  EXPECT_GT(near_one, h.total() / 100) << h.ToAscii();
}

TEST(WebShapeTest, EdisonSameLoadHasFewerReconnects) {
  // Figure 10 vs 11: the same offered load spread over 12 Edison servers
  // produces proportionally fewer SYN drops than over 2 Dells.
  WebExperiment edison(EdisonWebTestbed(12, 6));
  const OpenLoopReport e =
      edison.MeasureOpenLoop(LightMix(), 2600, Seconds(10));
  WebExperiment dell(DellWebTestbed(2, 1));
  const OpenLoopReport d =
      dell.MeasureOpenLoop(LightMix(), 2600, Seconds(10));
  auto tail_fraction = [](const LinearHistogram& h) {
    std::size_t tail = h.overflow();
    for (std::size_t i = 0; i < h.bucket_count(); ++i) {
      if (h.BucketLow(i) >= 0.75) tail += h.BucketValue(i);
    }
    return static_cast<double>(tail) /
           static_cast<double>(std::max<std::size_t>(1, h.total()));
  };
  EXPECT_LT(tail_fraction(e.delay_histogram),
            tail_fraction(d.delay_histogram));
}

TEST(WebShapeTest, HeavierMixesReduceThroughputAtHighConcurrency) {
  // Figure 5: at 1024-level concurrency the 10%-image mix collapses
  // harder than the no-image mix.
  WebExperiment exp(EdisonWebTestbed(6, 3));
  const double conc = 512;  // scaled for the 1/4 cluster
  const LevelReport plain = exp.MeasureClosedLoop(
      LightMix(), conc, 4, Seconds(2), Seconds(8));
  const LevelReport img = exp.MeasureClosedLoop(
      MixWithImagePercent(0.10), conc, 4, Seconds(2), Seconds(8));
  EXPECT_LT(img.achieved_rps, plain.achieved_rps * 1.02);
  EXPECT_GT(img.mean_response, plain.mean_response);
}

}  // namespace
}  // namespace wimpy::web
