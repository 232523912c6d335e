// Online telemetry plane (obs/telemetry.h; docs/telemetry.md): windowed
// rollups on the simulated clock, the live-query == exported-CSV
// recomputation contract, threshold and multi-window burn-rate alert
// rules, thread-count determinism of the exports, the SLO stream glue,
// the node-health score, and the run's sampling clock driving the plane
// up to the window end (obs/sinks.h).
#include "obs/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "load/openloop.h"
#include "obs/export.h"
#include "obs/sinks.h"
#include "obs/sketch.h"
#include "obs/tracer.h"
#include "sim/replication.h"
#include "sim/scheduler.h"

namespace wimpy::obs {
namespace {

// Runs the telemetry step at every slide edge up to and including `end`,
// as the run's sampling clock does; call after scheduling the load, so a
// step and an event at the same instant keep the clock's order (the
// event first).
void TickThrough(sim::Scheduler& sched, Telemetry& telemetry, SimTime end) {
  for (SimTime t = kTelemetrySlide; t <= end; t += kTelemetrySlide) {
    sched.ScheduleAt(t, [&telemetry, t] { telemetry.Tick(t); });
  }
}

// --- post-hoc recomputation from exported rows ----------------------------
//
// Mirrors Rollup::Query bucket-for-bucket over the exported TelemetrySeries
// (what RenderTelemetryCsv prints): fold count/sum/min/max/integral oldest
// to newest, rebuild the window sketch from the sparse .b<idx> rows, clamp
// quantiles with the exported min/max. `grid` is the full tick-time grid
// (from an instrument that is never empty — here a gauge probe), because
// empty buckets export no rows but still widen the window.

struct ExportedBucket {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::pair<int, std::uint64_t>> sketch;  // (bucket idx, count)
};

std::map<SimTime, ExportedBucket> BucketsOf(const TelemetrySeries& series,
                                            const std::string& name) {
  std::map<SimTime, ExportedBucket> out;
  const std::string prefix = name + ".";
  for (const TelemetryRow& row : series.rows) {
    if (row.metric.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string field = row.metric.substr(prefix.size());
    ExportedBucket& b = out[row.time];
    if (field == "count") {
      b.count = static_cast<std::uint64_t>(row.value);
    } else if (field == "sum") {
      b.sum = row.value;
    } else if (field == "min") {
      b.min = row.value;
    } else if (field == "max") {
      b.max = row.value;
    } else if (field[0] == 'b') {
      b.sketch.emplace_back(std::stoi(field.substr(1)),
                            static_cast<std::uint64_t>(row.value));
    }
  }
  return out;
}

RollupResult Recompute(const TelemetrySeries& series, const std::string& name,
                       const std::vector<SimTime>& grid, Duration window,
                       Duration slide, bool has_sketch) {
  const std::map<SimTime, ExportedBucket> buckets = BucketsOf(series, name);
  RollupResult r;
  r.has_sketch = has_sketch;
  long k = std::lround(window / slide);
  if (k < 1) k = 1;
  const std::size_t n = std::min(static_cast<std::size_t>(k), grid.size());
  r.window = static_cast<double>(n) * slide;
  if (n == 0) return r;
  HdrSketch merged;
  bool first = true;
  for (std::size_t i = grid.size() - n; i < grid.size(); ++i) {
    const auto it = buckets.find(grid[i]);
    if (it == buckets.end()) continue;  // empty bucket: exported no rows
    const ExportedBucket& b = it->second;
    for (const auto& [index, count] : b.sketch) {
      merged.AddBucketCount(index, count);
    }
    if (first) {
      r.min = b.min;
      r.max = b.max;
      first = false;
    } else {
      if (b.min < r.min) r.min = b.min;
      if (b.max > r.max) r.max = b.max;
    }
    r.count += b.count;
    r.sum += b.sum;
    r.integral += (b.sum / static_cast<double>(b.count)) * slide;
  }
  if (r.window > 0.0) r.rate = static_cast<double>(r.count) / r.window;
  if (r.count > 0) r.mean = r.sum / static_cast<double>(r.count);
  if (has_sketch && merged.count() > 0) {
    r.p50 = std::clamp(merged.Quantile(0.50), r.min, r.max);
    r.p90 = std::clamp(merged.Quantile(0.90), r.min, r.max);
    r.p99 = std::clamp(merged.Quantile(0.99), r.min, r.max);
  }
  return r;
}

void ExpectSameResult(const RollupResult& live, const RollupResult& redone) {
  EXPECT_EQ(live.window, redone.window);
  EXPECT_EQ(live.count, redone.count);
  EXPECT_EQ(live.sum, redone.sum);
  EXPECT_EQ(live.min, redone.min);
  EXPECT_EQ(live.max, redone.max);
  EXPECT_EQ(live.rate, redone.rate);
  EXPECT_EQ(live.mean, redone.mean);
  EXPECT_EQ(live.integral, redone.integral);
  EXPECT_EQ(live.p50, redone.p50);
  EXPECT_EQ(live.p90, redone.p90);
  EXPECT_EQ(live.p99, redone.p99);
}

// The acceptance contract: a mid-run (here end-of-run) live Query is
// reproducible exactly — same doubles, not approximately — from the
// exported rows alone.
TEST(TelemetryTest, LiveQueryMatchesExportRecomputation) {
  sim::Scheduler sched;
  Telemetry telemetry;
  Counter total = telemetry.AddCounter("req.total");
  Histogram lat = telemetry.AddHistogram("req.lat");
  telemetry.AddProbe("clock", [&sched] { return sched.now(); });

  Rng rng(5);
  // Offset avoids ever colliding with tick instants, so event-vs-tick
  // ordering is never in play.
  for (int i = 0; i < 190; ++i) {
    sched.ScheduleAt(0.05 * i + 0.003, [&total, &lat, &rng] {
      total.Add();
      lat.Record(rng.Exponential(400.0));
    });
  }
  TickThrough(sched, telemetry, 10.0);
  sched.Run();
  EXPECT_EQ(telemetry.ticks(), 10u);

  const TelemetrySeries& series = telemetry.series();
  // Tick-time grid from the probe: gauges observe every tick, so their
  // buckets are never empty and enumerate every close edge.
  std::vector<SimTime> grid;
  for (const auto& [time, bucket] : BucketsOf(series, "clock")) {
    grid.push_back(time);
  }
  ASSERT_EQ(grid.size(), 10u);

  const Duration slide = kTelemetrySlide;
  for (Duration window : {1.0, 2.0, 5.0, 7.0, 100.0}) {
    ExpectSameResult(
        telemetry.Query("req.total", window),
        Recompute(series, "req.total", grid, window, slide, false));
    ExpectSameResult(telemetry.Query("req.lat", window),
                     Recompute(series, "req.lat", grid, window, slide, true));
    ExpectSameResult(telemetry.Query("clock", window),
                     Recompute(series, "clock", grid, window, slide, false));
  }
  // Unknown instruments answer empty, never crash (rules are wired from
  // config strings).
  EXPECT_EQ(telemetry.Query("no.such", 5.0).count, 0u);
  EXPECT_EQ(telemetry.QueryAgg("no.such", Agg::kRate, 5.0), 0.0);
}

TEST(RunSinksTest, CloseWindowClosesBucketDueExactlyNow) {
  // The experiment idiom: the window-end ScheduleAt callback runs before
  // the sampling tick scheduled for the same instant (older sequence
  // number) and closes the window — the full final bucket must not be
  // lost.
  sim::Scheduler sched;
  Telemetry telemetry;
  Counter c = telemetry.AddCounter("c");
  RunSinks sinks(&sched, nullptr, nullptr, nullptr, &telemetry, 1);
  sched.ScheduleAt(1.5, [&c] { c.Add(3.0); });
  sched.ScheduleAt(2.0, [&sinks] { sinks.CloseWindow(); });
  sinks.StartSampling();
  sched.Run();
  EXPECT_EQ(telemetry.ticks(), 2u);
  EXPECT_EQ(telemetry.Query("c", 1.0).sum, 3.0);

  // A close mid-bucket closes nothing extra.
  sim::Scheduler sched2;
  Telemetry telemetry2;
  Counter c2 = telemetry2.AddCounter("c");
  RunSinks sinks2(&sched2, nullptr, nullptr, nullptr, &telemetry2, 1);
  sched2.ScheduleAt(2.5, [&sinks2] { sinks2.CloseWindow(); });
  sched2.ScheduleAt(2.25, [&c2] { c2.Add(); });
  sinks2.StartSampling();
  sched2.Run();
  EXPECT_EQ(telemetry2.ticks(), 2u);
  // The 2.25 observation sits in the never-closed open bucket.
  EXPECT_EQ(telemetry2.Query("c", 10.0).count, 0u);
}

TEST(TelemetryTest, ThresholdRuleFiresOnRisingEdgeOnly) {
  sim::Scheduler sched;
  Telemetry telemetry;
  Counter errors = telemetry.AddCounter("err");
  ThresholdRule rule;
  rule.name = "err_spike";
  rule.metric = "err";
  rule.agg = Agg::kRate;
  rule.threshold = 5.0;
  rule.window = 1.0;
  telemetry.AddThresholdRule(rule);

  auto burst = [&](double t) {
    for (int i = 0; i < 10; ++i) {
      sched.ScheduleAt(t + 0.01 * (i + 1), [&errors] { errors.Add(); });
    }
  };
  burst(1.0);  // bucket [1,2): hot at tick 2
  burst(2.0);  // still hot at tick 3: no re-fire
  // bucket [3,4) quiet: clears at tick 4
  burst(4.0);  // hot again at tick 5: second fire
  TickThrough(sched, telemetry, 6.0);
  sched.Run();

  ASSERT_EQ(telemetry.alerts().size(), 2u);
  EXPECT_EQ(telemetry.alerts()[0].time, 2.0);
  EXPECT_EQ(telemetry.alerts()[0].rule, "err_spike");
  EXPECT_EQ(telemetry.alerts()[0].value, 10.0);
  EXPECT_EQ(telemetry.alerts()[1].time, 5.0);
}

TEST(TelemetryTest, BurnRateNeedsBothWindowsAndRecomputes) {
  sim::Scheduler sched;
  Tracer tracer;
  Telemetry telemetry;
  Counter good = telemetry.AddCounter("slo.good");
  Counter total = telemetry.AddCounter("slo.total");
  BurnRateRule rule;
  rule.name = "slo_burn";
  rule.good_metric = "slo.good";
  rule.total_metric = "slo.total";
  rule.slo_target = 0.9;  // 10% budget
  rule.burn_threshold = 1.0;
  rule.short_window = 1.0;
  rule.long_window = 3.0;
  telemetry.AddBurnRateRule(rule);

  // Four healthy seconds, then four fully-burning ones. The long window
  // at tick 5 spans buckets [2,5): 20 good / 30 total -> burn 10/3; the
  // short window is bucket [4,5): 0/10 -> burn 10. First tick where BOTH
  // exceed 1.0 is t=5.
  for (int s = 0; s < 8; ++s) {
    const bool healthy = s < 4;
    for (int i = 0; i < 10; ++i) {
      sched.ScheduleAt(s + 0.01 * (i + 1), [&good, &total, healthy] {
        total.Add();
        if (healthy) good.Add();
      });
    }
  }
  telemetry.TraceAlertsTo(&tracer);
  TickThrough(sched, telemetry, 8.0);
  sched.Run();

  ASSERT_EQ(telemetry.alerts().size(), 1u);
  const Alert& alert = telemetry.alerts()[0];
  EXPECT_EQ(alert.time, 5.0);
  EXPECT_EQ(alert.rule, "slo_burn");
  // Recompute the fired value from window sums the way the rule does.
  const double budget = 1.0 - rule.slo_target;
  const double short_burn =
      (1.0 - telemetry.Query("slo.good", 1.0).sum /
                 telemetry.Query("slo.total", 1.0).sum) /
      budget;
  EXPECT_EQ(alert.value, short_burn);
  // 1/0.1 in doubles is 10 +- 1 ulp, so the literal pin is ulp-tolerant.
  EXPECT_DOUBLE_EQ(alert.value, 10.0);
  // The firing also landed on the trace as a kAlert instant.
  const TraceLog log = tracer.TakeLog();
  int alert_instants = 0;
  for (const TraceEvent& e : log.events) {
    if (e.category == Category::kAlert) {
      ++alert_instants;
      EXPECT_EQ(e.time, 5.0);
    }
  }
  EXPECT_EQ(alert_instants, 1);
}

// One simulated cell for the determinism sweep: a self-contained sim
// whose load is a pure function of the cell seed.
struct SweepCell {
  double rate = 0.0;
};

struct SweepResult {
  TelemetrySeries telemetry;
  AlertLog alerts;
};

SweepResult RunSweepCell(const SweepCell& cell, Rng& root) {
  sim::Scheduler sched;
  Telemetry telemetry;
  Counter total = telemetry.AddCounter("slo.total");
  Counter good = telemetry.AddCounter("slo.good");
  Histogram lat = telemetry.AddHistogram("slo.lat");
  ThresholdRule rule;
  rule.name = "p99_high";
  rule.metric = "slo.lat";
  rule.agg = Agg::kP99;
  rule.threshold = 0.004;
  rule.window = 2.0;
  telemetry.AddThresholdRule(rule);
  Rng rng(root.Next());
  double t = 0.0;
  while (true) {
    t += rng.Exponential(cell.rate);
    if (t >= 6.0) break;
    sched.ScheduleAt(t, [&total, &good, &lat, &rng] {
      total.Add();
      const double latency = rng.Exponential(700.0);
      lat.Record(latency);
      if (latency <= 0.004) good.Add();
    });
  }
  TickThrough(sched, telemetry, 6.0);
  sched.Run();
  return SweepResult{telemetry.TakeSeries(), telemetry.TakeAlerts()};
}

TEST(TelemetryTest, ExportsByteIdenticalAcrossThreadCounts) {
  const std::vector<SweepCell> cells{{200.0}, {800.0}};
  auto render = [&](int threads) {
    const sim::SweepPlan plan{/*replications=*/3, threads,
                              /*base_seed=*/0x77};
    auto sweep = sim::RunSweep(cells, plan, RunSweepCell);
    std::vector<TelemetrySeries> series;
    std::vector<AlertLog> alerts;
    for (auto& per_config : sweep) {
      for (auto& rep : per_config) {
        series.push_back(std::move(rep.telemetry));
        alerts.push_back(std::move(rep.alerts));
      }
    }
    return RenderTelemetryCsv(series) + "\n---\n" + RenderAlertsCsv(alerts);
  };
  const std::string serial = render(1);
  const std::string parallel = render(8);
  EXPECT_EQ(serial, parallel);
  // And the run was not trivially empty.
  EXPECT_NE(serial.find("slo.lat.count"), std::string::npos);
}

// by_name_ keeps the first of two equal names, so a second instrument by
// that name would be recorded into but never queried or exported. It is
// rejected in every build type, whatever the two instruments' kinds.
TEST(TelemetryDeathTest, DuplicateInstrumentNameAborts) {
  Telemetry telemetry;
  telemetry.AddCounter("c");
  EXPECT_DEATH(telemetry.AddCounter("c"),
               "obs::Telemetry: duplicate instrument name");
  EXPECT_DEATH(telemetry.AddHistogram("c"), "duplicate instrument name");
  EXPECT_DEATH(telemetry.AddProbe("c", [] { return 1.0; }),
               "duplicate instrument name");
  telemetry.AddHistogram("h");
  EXPECT_NE(telemetry.Find("c"), nullptr);
  EXPECT_NE(telemetry.Find("h"), nullptr);
}

TEST(TelemetryTest, SloStreamFeedsInstruments) {
  sim::Scheduler sched;
  Telemetry telemetry;
  load::OpenLoopRecorder recorder(/*window_start=*/0.0, /*window_end=*/10.0,
                                  /*slo=*/0.005);
  recorder.set_stream(SloStreamInto(&telemetry, "slo"));
  sched.ScheduleAt(0.5, [&recorder] {
    // ok, under SLO
    recorder.OnComplete(/*intended=*/0.4, /*finished=*/0.403, true);
    // ok, over SLO
    recorder.OnComplete(0.4, 0.42, true);
    // error
    recorder.OnComplete(0.4, 0.41, false);
    // shed
    recorder.OnShed(0.45);
  });
  TickThrough(sched, telemetry, 1.0);
  sched.Run();
  EXPECT_EQ(telemetry.Query("slo.offered", 1.0).sum, 4.0);
  EXPECT_EQ(telemetry.Query("slo.good", 1.0).sum, 1.0);
  EXPECT_EQ(telemetry.Query("slo.shed", 1.0).sum, 1.0);
  EXPECT_EQ(telemetry.Query("slo.errors", 1.0).sum, 1.0);
  const RollupResult lat = telemetry.Query("slo.latency", 1.0);
  EXPECT_EQ(lat.count, 2u);  // errors record no latency
  EXPECT_NEAR(lat.min, 0.003, 1e-12);
  EXPECT_NEAR(lat.max, 0.02, 1e-12);
}

TEST(TelemetryTest, NodeHealthScoresAndRenormalizesWeights) {
  sim::Scheduler sched;
  Telemetry telemetry;
  telemetry.AddProbe("n0.util", [] { return 0.5; });
  Counter shed = telemetry.AddCounter("n.shed");
  NodeHealthConfig config;
  config.window = 4.0;
  config.shed_rate_cap = 10.0;
  NodeHealth health(&telemetry, config);
  NodeHealthInputs inputs;
  inputs.utilization = "n0.util";
  inputs.shed = "n.shed";  // power/queue/lag left empty: dropped terms
  health.AddNode(0, inputs);
  health.AddNode(1, NodeHealthInputs{});  // no inputs: perfectly healthy

  Tracer tracer;
  health.EmitTraceInstants(&tracer);
  for (int i = 0; i < 8; ++i) {  // 2 sheds/s
    sched.ScheduleAt(0.25 + 0.5 * i, [&shed] { shed.Add(); });
  }
  TickThrough(sched, telemetry, 4.0);
  sched.Run();

  // util term: mean 0.5 / cap 1.0; shed term: rate 2/s / cap 10. Only
  // the two wired weights participate.
  const double util_mean =
      telemetry.QueryAgg("n0.util", Agg::kMean, config.window);
  const double shed_rate =
      telemetry.QueryAgg("n.shed", Agg::kRate, config.window);
  EXPECT_EQ(util_mean, 0.5);
  EXPECT_EQ(shed_rate, 2.0);
  const double expected =
      1.0 - (NodeHealth::kUtilWeight * 0.5 +
             NodeHealth::kShedWeight * (2.0 / 10.0)) /
                (NodeHealth::kUtilWeight + NodeHealth::kShedWeight);
  EXPECT_NEAR(health.Score(0), expected, 1e-12);
  EXPECT_EQ(health.Score(1), 1.0);
  EXPECT_EQ(health.Score(99), 1.0);  // unknown node

  // Every tick emitted one kHealth instant per node, score in permille.
  const TraceLog log = tracer.TakeLog();
  int health_instants = 0;
  for (const TraceEvent& e : log.events) {
    if (e.category == Category::kHealth) ++health_instants;
  }
  EXPECT_EQ(health_instants, 2 * 4);
}

}  // namespace
}  // namespace wimpy::obs
