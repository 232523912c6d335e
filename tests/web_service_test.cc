#include "web/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "web/workload.h"

namespace wimpy::web {
namespace {

TEST(WorkloadMixTest, MeanReplySizesMatchPaper) {
  // §5.1.1: average reply sizes 1.5 / 3.8 / 5.8 / 10 KB at 0/6/10/20%.
  EXPECT_NEAR(LightMix().MeanReplyBytes(), 1500, 50);
  EXPECT_NEAR(MixWithImagePercent(0.06).MeanReplyBytes(), 3800, 300);
  EXPECT_NEAR(MixWithImagePercent(0.10).MeanReplyBytes(), 5750, 300);
  EXPECT_NEAR(HeavyMix().MeanReplyBytes(), 10000, 500);
}

TEST(WorkloadMixTest, SampleRespectsProbabilities) {
  Rng rng(7);
  const WorkloadMix mix = HeavyMix();
  int images = 0, hits = 0;
  const int n = 20000;
  double reply_sum = 0;
  for (int i = 0; i < n; ++i) {
    const RequestSpec spec = mix.Sample(rng);
    images += spec.is_image;
    hits += spec.cache_hit;
    reply_sum += static_cast<double>(spec.reply_bytes);
    EXPECT_GE(spec.reply_bytes, 128);
  }
  EXPECT_NEAR(images / static_cast<double>(n), 0.20, 0.01);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.93, 0.01);
  EXPECT_NEAR(reply_sum / n, mix.MeanReplyBytes(), 500);
}

TEST(WebExperimentTest, TunedCallsFollowPaperPolicy) {
  // More calls per connection at low concurrency, fewer at high.
  EXPECT_EQ(WebExperiment::TunedCallsPerConnection(8), 14);
  EXPECT_EQ(WebExperiment::TunedCallsPerConnection(512), 14);
  EXPECT_EQ(WebExperiment::TunedCallsPerConnection(1024), 7);
  EXPECT_EQ(WebExperiment::TunedCallsPerConnection(2048), 4);
}

TEST(WebExperimentTest, LowConcurrencyDeliversOfferedLoad) {
  WebExperiment exp(EdisonWebTestbed(6, 3));
  const LevelReport report =
      exp.MeasureClosedLoop(LightMix(), 32, 8, Seconds(2), Seconds(10));
  // Offered: 32 conn/s x 8 calls = 256 rps; the cluster is far from
  // saturation, so throughput tracks the offered load.
  EXPECT_NEAR(report.achieved_rps, 256, 40);
  EXPECT_LT(report.error_rate, 0.01);
  EXPECT_GT(report.mean_response, 0);
  EXPECT_LT(report.mean_response, Milliseconds(100));
  EXPECT_GT(report.middle_tier_power, 0);
}

TEST(WebExperimentTest, OverloadProducesServerErrors) {
  // 3 web servers offered ~25x their capacity.
  WebExperiment exp(EdisonWebTestbed(3, 2));
  const LevelReport report =
      exp.MeasureClosedLoop(LightMix(), 2048, 14, Seconds(2), Seconds(8));
  EXPECT_GT(report.error_rate, 0.2);
  EXPECT_LT(report.achieved_rps, 2048 * 14 * 0.5);
}

TEST(WebExperimentTest, DelayDecompositionRecorded) {
  WebExperiment exp(EdisonWebTestbed(4, 2));
  const LevelReport report =
      exp.MeasureClosedLoop(HeavyMix(), 32, 8, Seconds(2), Seconds(8));
  // 93% cache hits: cache fetches dominate counts; misses hit the DB.
  EXPECT_GT(report.cache_delay.count(), report.db_delay.count());
  EXPECT_GT(report.db_delay.count(), 0u);
  // The DB is two Dell machines across a room link; a fetch takes
  // milliseconds, not microseconds or seconds.
  EXPECT_GT(report.db_delay.mean(), Milliseconds(1));
  EXPECT_LT(report.db_delay.mean(), Milliseconds(100));
  EXPECT_LE(report.cache_delay.mean() + report.db_delay.mean(),
            report.total_delay.mean() * 2.0);
}

TEST(WebExperimentTest, UtilisationReported) {
  WebExperiment exp(EdisonWebTestbed(4, 2));
  const LevelReport report =
      exp.MeasureClosedLoop(LightMix(), 128, 8, Seconds(2), Seconds(8));
  EXPECT_GT(report.web_cpu_pct, 1.0);
  EXPECT_LT(report.web_cpu_pct, 100.0);
  EXPECT_GE(report.cache_cpu_pct, 0.0);
}

TEST(WebExperimentTest, OpenLoopHistogramCollectsDelays) {
  WebExperiment exp(EdisonWebTestbed(4, 2));
  const OpenLoopReport report =
      exp.MeasureOpenLoop(LightMix(), 200, Seconds(8));
  EXPECT_NEAR(report.achieved_rps, 200, 40);
  EXPECT_GT(report.delay_histogram.total(), 1000u);
  // At this easy load the delays concentrate in the first bucket.
  EXPECT_EQ(report.delay_histogram.ArgMaxBucket(), 0u);
  EXPECT_GT(report.client_delay.mean(), 0.0);
}

TEST(WebExperimentTest, OpenLoopSinksChangeNoSimulatedOutput) {
  // The open loop starts the same sampling clock as the store harness.
  // With a tracer, a metrics registry and a telemetry plane attached, the
  // report equals the sink-free one in every field but the engine event
  // count, and both planes record: telemetry rows, and the web tier's
  // health scores as metrics columns.
  load::OpenLoopConfig load_config;
  load_config.arrival.rate = 200;
  load_config.slo = Milliseconds(20);
  const WebTestbedConfig bare = EdisonWebTestbed(4, 2);
  WebTestbedConfig observed = bare;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::Telemetry telemetry;
  observed.tracer = &tracer;
  observed.metrics = &metrics;
  observed.telemetry = &telemetry;
  const OpenLoopReport a =
      WebExperiment(bare).MeasureOpenLoop(LightMix(), load_config, Seconds(4));
  const OpenLoopReport b = WebExperiment(observed).MeasureOpenLoop(
      LightMix(), load_config, Seconds(4));

  EXPECT_EQ(a.target_rps, b.target_rps);
  EXPECT_EQ(a.achieved_rps, b.achieved_rps);
  EXPECT_EQ(a.error_rate, b.error_rate);
  ASSERT_EQ(a.delay_histogram.bucket_count(), b.delay_histogram.bucket_count());
  for (std::size_t i = 0; i < a.delay_histogram.bucket_count(); ++i) {
    EXPECT_EQ(a.delay_histogram.BucketValue(i),
              b.delay_histogram.BucketValue(i));
  }
  EXPECT_EQ(a.delay_histogram.underflow(), b.delay_histogram.underflow());
  EXPECT_EQ(a.delay_histogram.overflow(), b.delay_histogram.overflow());
  const auto same_stats = [](const OnlineStats& x, const OnlineStats& y) {
    EXPECT_EQ(x.count(), y.count());
    EXPECT_EQ(x.mean(), y.mean());
    EXPECT_EQ(x.min(), y.min());
    EXPECT_EQ(x.max(), y.max());
  };
  same_stats(a.db_delay, b.db_delay);
  same_stats(a.cache_delay, b.cache_delay);
  same_stats(a.total_delay, b.total_delay);
  same_stats(a.client_delay, b.client_delay);
  same_stats(a.intended_delay, b.intended_delay);
  EXPECT_EQ(a.offered_rps, b.offered_rps);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.p99_intended, b.p99_intended);
  EXPECT_EQ(a.p99_client, b.p99_client);
  EXPECT_EQ(a.slo_good_fraction, b.slo_good_fraction);
  EXPECT_EQ(a.slo_goodput_per_joule, b.slo_goodput_per_joule);
  EXPECT_EQ(a.middle_tier_power, b.middle_tier_power);
  EXPECT_EQ(a.window_joules, b.window_joules);
  EXPECT_GT(b.executed_events, a.executed_events);

  EXPECT_GT(telemetry.ticks(), 0u);
  EXPECT_FALSE(telemetry.series().rows.empty());
  const std::vector<double> health =
      metrics.series().Column("health.node0");
  ASSERT_FALSE(health.empty());
  EXPECT_LT(*std::min_element(health.begin(), health.end()), 1.0);
  EXPECT_GT(tracer.size(), 0u);
}

TEST(WebExperimentTest, EdisonFasterResponseAtLowLoadThanUnderStress) {
  WebExperiment exp(EdisonWebTestbed(4, 2));
  const LevelReport light =
      exp.MeasureClosedLoop(LightMix(), 32, 8, Seconds(2), Seconds(8));
  const LevelReport stressed =
      exp.MeasureClosedLoop(LightMix(), 512, 8, Seconds(2), Seconds(8));
  EXPECT_GT(stressed.mean_response, light.mean_response);
}

// Every scalar field of one small closed-loop report at full precision.
// The 1 Hz utilisation samplers, the window's energy meter and the engine
// event count all land in these digits, so moving a sample instant, the
// order of two events or the arithmetic of a mean fails this test.
TEST(WebServiceTest, ClosedLoopReportIsPinnedBitForBit) {
  WebTestbedConfig config = EdisonWebTestbed(4, 2);
  config.seed = 77;
  WebExperiment exp(config);
  const LevelReport r =
      exp.MeasureClosedLoop(LightMix(), 96, 8, Seconds(2), Seconds(6));
  const std::pair<const char*, double> fields[] = {
      {"target_concurrency", r.target_concurrency},
      {"calls_per_connection", r.calls_per_connection},
      {"achieved_rps", r.achieved_rps},
      {"error_rate", r.error_rate},
      {"mean_response", r.mean_response},
      {"middle_tier_power", r.middle_tier_power},
      {"web_cpu_pct", r.web_cpu_pct},
      {"cache_cpu_pct", r.cache_cpu_pct},
      {"db_delay.mean", r.db_delay.mean()},
      {"cache_delay.mean", r.cache_delay.mean()},
      {"total_delay.mean", r.total_delay.mean()},
      {"total_delay.count", static_cast<double>(r.total_delay.count())},
      {"executed_events", static_cast<double>(r.executed_events)},
      {"dispatch_response.mean", r.dispatch_response.mean()},
      {"conn_intended_response.mean", r.conn_intended_response.mean()},
      {"p99_dispatch", r.p99_dispatch},
      {"p99_conn_intended", r.p99_conn_intended},
  };
  const char* const expected[] = {
      "96",
      "8",
      "809.66666666666663",
      "0",
      "0.010537545775497963",
      "8.8621703562079563",
      "66.666666666666671",
      "16.666666666666668",
      "0.0021157003771698122",
      "0.0032153224061411568",
      "0.010332256376949012",
      "4867",
      "174612",
      "0.01116896012873716",
      "0.052616915053846768",
      "0.015439629018269363",
      "0.10377039659909057",
  };
  ASSERT_EQ(std::size(fields), std::size(expected));
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", fields[i].second);
    EXPECT_EQ(std::string(text), expected[i]) << fields[i].first;
  }
}

// The config checks run in every build type: a zero-sized web tier or
// client pool would divide by zero in the balancer (SIGFPE in Release).
TEST(WebExperimentDeathTest, ZeroSizedTiersAbortAtConstruction) {
  WebTestbedConfig no_webs = EdisonWebTestbed(0, 2);
  EXPECT_DEATH(WebExperiment{no_webs},
               "web::WebExperiment: web_servers must be >= 1");
  WebTestbedConfig no_clients = EdisonWebTestbed(4, 2);
  no_clients.client_machines = 0;
  EXPECT_DEATH(WebExperiment{no_clients},
               "web::WebExperiment: client_machines must be >= 1");
  WebTestbedConfig negative_caches = EdisonWebTestbed(4, -1);
  EXPECT_DEATH(WebExperiment{negative_caches},
               "web::WebExperiment: cache_servers must be >= 0");
}

TEST(WebExperimentDeathTest, EmptyLoadAbortsAtMeasureTime) {
  WebExperiment exp(EdisonWebTestbed(1, 0));
  EXPECT_DEATH(exp.MeasureClosedLoop(LightMix(), 0, 4),
               "web::WebExperiment: concurrency must be > 0");
  EXPECT_DEATH(exp.MeasureClosedLoop(LightMix(), 32, 0),
               "web::WebExperiment: calls_per_connection must be >= 1");
  EXPECT_DEATH(exp.MeasureWithFailure(LightMix(), -1, 4, 0),
               "web::WebExperiment: concurrency must be > 0");
  EXPECT_DEATH(exp.MeasureOpenLoop(LightMix(), 0),
               "web::WebExperiment: target rps must be > 0");
}

}  // namespace
}  // namespace wimpy::web
