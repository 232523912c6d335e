// obs::MetricsRegistry tests (docs/observability.md): the simulated-time
// sampling clock, CSV export format, thread-count-invariant sweep export,
// and the Table 7 contract — the web testbed's latency decomposition must
// be reproducible from the exported metrics CSV alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/replication.h"
#include "sim/scheduler.h"
#include "web/service.h"

namespace wimpy::obs {
namespace {

TEST(MetricsRegistryTest, SamplesOnTheSimulatedClock) {
  sim::Scheduler sched;
  MetricsRegistry registry;
  double level = 0;
  double total = 0;
  registry.Add("level", [&level] { return level; });
  registry.Add("total", [&total] { return total; });
  ASSERT_EQ(registry.probe_count(), 2u);

  sched.ScheduleAt(2.5, [&] { level = 3; total += 10; });
  sched.ScheduleAt(4.25, [&] { total += 5; });
  registry.Start(&sched);  // samples at t=0 immediately
  EXPECT_TRUE(registry.running());
  sched.ScheduleAt(5.5, [&registry] { registry.Stop(); });
  sched.Run();
  EXPECT_FALSE(registry.running());
  EXPECT_EQ(sched.pending_events(), 0u);  // tick was cancellable

  registry.SampleNow();  // final post-drain sample at t=5.5

  const MetricsSeries& s = registry.series();
  const std::vector<SimTime> want_times = {0, 1, 2, 3, 4, 5, 5.5};
  ASSERT_EQ(s.times, want_times);
  ASSERT_EQ(s.names, (std::vector<std::string>{"level", "total"}));
  const std::vector<double> want_level = {0, 0, 0, 3, 3, 3, 3};
  const std::vector<double> want_total = {0, 0, 0, 10, 10, 15, 15};
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    EXPECT_EQ(s.rows[i][0], want_level[i]) << "row " << i;
    EXPECT_EQ(s.rows[i][1], want_total[i]) << "row " << i;
  }
}

TEST(MetricsRegistryTest, TakeSeriesKeepsProbesRegistered) {
  sim::Scheduler sched;
  MetricsRegistry registry;
  registry.Add("g", [] { return 1.0; });
  registry.Start(&sched);
  registry.Stop();
  const MetricsSeries first = registry.TakeSeries();
  ASSERT_EQ(first.rows.size(), 1u);  // the immediate Start() sample

  // The registry can keep sampling into a fresh series with the same
  // column set.
  registry.SampleNow();
  const MetricsSeries second = registry.TakeSeries();
  EXPECT_EQ(second.names, first.names);
  ASSERT_EQ(second.rows.size(), 1u);
  EXPECT_EQ(second.rows[0][0], 1.0);
}

// The Detach() lifetime guard (docs/telemetry.md): experiments sever
// probe closures when the probed components die with the testbed scope.
// Sampling through severed closures must be a loud checked error, not a
// use-after-free.
TEST(MetricsRegistryDeathTest, SamplingAfterDetachAborts) {
  sim::Scheduler sched;
  MetricsRegistry registry;
  {
    double level = 7;
    registry.Add("level", [&level] { return level; });
    registry.Start(&sched);
    registry.Stop();
    registry.SampleNow();  // fine: `level` is still alive here
    registry.Detach();     // `level` dies with this scope
  }
  EXPECT_DEATH(registry.SampleNow(), "detached registry");
  EXPECT_DEATH(registry.Start(&sched), "detached registry");
}

// A column registered after the first sample would leave the earlier rows
// shorter than `names`, so Column() would read past their end; it is
// rejected in every build type.
TEST(MetricsRegistryDeathTest, AddAfterFirstSampleAborts) {
  sim::Scheduler sched;
  MetricsRegistry registry;
  registry.Add("early", [] { return 1.0; });
  registry.Add("also_early", [] { return 2.0; });
  registry.Start(&sched);  // samples at t=0 immediately
  registry.Stop();
  EXPECT_DEATH(registry.Add("late", [] { return 3.0; }),
               "obs::MetricsRegistry: probe registered after the first "
               "sample");
  // A fresh series takes new columns again.
  registry.TakeSeries();
  registry.Add("late", [] { return 3.0; });
  registry.SampleNow();
  EXPECT_EQ(registry.series().Column("late"), (std::vector<double>{3.0}));
}

TEST(MetricsRegistryTest, DetachStopsTheSamplingClock) {
  sim::Scheduler sched;
  MetricsRegistry registry;
  registry.Add("g", [] { return 1.0; });
  registry.Start(&sched);
  registry.Detach();
  EXPECT_FALSE(registry.running());
  EXPECT_EQ(sched.pending_events(), 0u);  // pending tick was cancelled
}

TEST(MetricsSeriesTest, ColumnReadsOneMetricAcrossRows) {
  MetricsSeries s;
  s.names = {"a", "b"};
  s.times = {0, 1};
  s.rows = {{0.5, 2}, {0.25, 4}};
  EXPECT_EQ(s.Column("b"), (std::vector<double>{2, 4}));
  EXPECT_DEATH(s.Column("c"), "obs::MetricsSeries: no column by that name");
}

TEST(MetricsExportTest, CsvLongFormatGolden) {
  MetricsSeries s;
  s.names = {"a", "b"};
  s.times = {0, 1.5};
  s.rows = {{0.5, 2}, {0.25, 4}};
  const std::string csv = RenderMetricsCsv({s});
  EXPECT_EQ(csv,
            "series,time_s,metric,value\n"
            "0,0,a,0.5\n"
            "0,0,b,2\n"
            "0,1.5,a,0.25\n"
            "0,1.5,b,4\n");
}

// One sweep replication: sampled gauge driven by rng-derived bumps, a
// pure function of the root Rng.
MetricsSeries MetricsReplication(int bumps, Rng& root) {
  sim::Scheduler sched;
  MetricsRegistry registry;
  double level = 0;
  registry.Add("level", [&level] { return level; });
  Rng rng = root.Fork();
  for (int i = 1; i <= bumps; ++i) {
    sched.ScheduleAt(i * 0.9, [&level, &rng] {
      level += rng.Uniform(0.0, 1.0);
    });
  }
  registry.Start(&sched);
  sched.ScheduleAt(bumps * 0.9, [&registry] { registry.Stop(); });
  sched.Run();
  registry.SampleNow();
  return registry.TakeSeries();
}

std::string RenderSweepCsv(int threads) {
  const std::vector<int> configs = {3, 6};
  const sim::SweepPlan plan{/*replications=*/3, threads,
                            /*base_seed=*/20160901};
  auto sweep = sim::RunSweep(configs, plan, MetricsReplication);
  std::vector<MetricsSeries> series;
  for (auto& per_config : sweep) {
    for (auto& s : per_config) series.push_back(std::move(s));
  }
  return RenderMetricsCsv(series);
}

TEST(MetricsExportTest, ExportedCsvIsByteIdenticalAtAnyThreadCount) {
  const std::string serial = RenderSweepCsv(1);
  const std::string parallel = RenderSweepCsv(4);
  EXPECT_GT(serial.size(), 100u);
  EXPECT_EQ(serial, parallel);
}

// Returns every CSV value whose metric column equals `metric`, in row
// order, parsing nothing but the exported text — the consumer's view of
// the data.
std::vector<double> CsvValues(const std::string& csv,
                              const std::string& metric) {
  std::vector<double> values;
  std::size_t start = 0;
  while (start < csv.size()) {
    std::size_t end = csv.find('\n', start);
    if (end == std::string::npos) end = csv.size();
    const std::string line = csv.substr(start, end - start);
    start = end + 1;
    // series,time_s,metric,value
    const std::size_t c1 = line.find(',');
    const std::size_t c2 = line.find(',', c1 + 1);
    const std::size_t c3 = line.find(',', c2 + 1);
    if (c3 == std::string::npos) continue;
    if (line.substr(c2 + 1, c3 - c2 - 1) != metric) continue;
    values.push_back(std::strtod(line.c_str() + c3 + 1, nullptr));
  }
  EXPECT_FALSE(values.empty()) << metric << " not present in CSV";
  return values;
}

double LastCsvValue(const std::string& csv, const std::string& metric) {
  const std::vector<double> values = CsvValues(csv, metric);
  return values.empty() ? 0 : values.back();
}

TEST(MetricsWebIntegrationTest, Table7DecompositionReproducibleFromCsvAlone) {
  // bench_table7_delay_decomp's contract: the final `svc.*_delay_*`
  // samples in the exported CSV equal the OpenLoopReport the table is
  // printed from, because the testbed publishes the same merged
  // OnlineStats the report collects and takes one final sample after the
  // run drains.
  web::WebTestbedConfig cfg = web::EdisonWebTestbed(4, 2);
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  web::WebExperiment exp(std::move(cfg));
  const web::OpenLoopReport report =
      exp.MeasureOpenLoop(web::HeavyMix(), 200, Seconds(8));
  ASSERT_GT(report.db_delay.count(), 100u);

  const std::string csv = RenderMetricsCsv({metrics.TakeSeries()});
  auto near = [](double got, double want) {
    // %.9g keeps ~9 significant digits through the CSV round-trip.
    EXPECT_NEAR(got, want, 1e-6 * std::abs(want) + 1e-12);
  };
  near(LastCsvValue(csv, "svc.db_delay_mean"), report.db_delay.mean());
  near(LastCsvValue(csv, "svc.db_delay_count"),
       static_cast<double>(report.db_delay.count()));
  near(LastCsvValue(csv, "svc.cache_delay_mean"),
       report.cache_delay.mean());
  near(LastCsvValue(csv, "svc.total_delay_mean"),
       report.total_delay.mean());
  near(LastCsvValue(csv, "svc.total_delay_count"),
       static_cast<double>(report.total_delay.count()));

  // The hardware probes sampled alongside are live too: the middle tier
  // burned energy over the run, and some in-run sample caught the first
  // web server's CPU busy (the final post-drain sample shows it idle).
  EXPECT_GT(LastCsvValue(csv, "svc.middle_joules"), 0.0);
  double peak_cpu = 0;
  for (double v : CsvValues(csv, "web0.cpu_busy")) {
    peak_cpu = std::max(peak_cpu, v);
  }
  EXPECT_GT(peak_cpu, 0.0);
}

}  // namespace
}  // namespace wimpy::obs
