// Sharded scale-out experiment (shard/experiment.h): live rebalance with
// zero failed requests, also through node failures, run-to-run
// determinism, the oversubscription throughput cliff the hierarchical
// topology exists to expose, and config checks that hold in every build.
#include "shard/experiment.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "obs/energy.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"

namespace wimpy::shard {
namespace {

ShardExperimentConfig BaseConfig() {
  ShardExperimentConfig config;  // 3 racks x 4 Edisons + 1 spare
  config.ring.replication = 2;
  config.seed = 77;
  // Small shards keep the migration fast enough for a unit test while
  // still exercising batching and catch-up.
  config.migration.shard_bytes = 512 * 1024;
  return config;
}

TEST(ShardExperimentTest, SteadyStateServesAtTarget) {
  ShardExperimentConfig config = BaseConfig();
  ShardExperiment exp(std::move(config));
  const ShardReport report = exp.Measure(1500.0, Seconds(4));
  EXPECT_EQ(report.failed, 0);
  EXPECT_GE(report.achieved_qps, 0.9 * 1500.0);
  EXPECT_GT(report.queries_per_joule, 0.0);
  // R=2 chains over 3 racks: most replica hops cross a rack boundary.
  EXPECT_GT(report.cross_rack_replica_fraction, 0.3);
  // No churn requested -> no migration ran.
  EXPECT_EQ(report.migration.shards_moved, 0);
  EXPECT_FALSE(report.migration.done);
}

TEST(ShardExperimentTest, MidRunJoinMigratesWithZeroFailedRequests) {
  ShardExperimentConfig config = BaseConfig();
  config.churn = Churn::kJoin;
  ShardExperiment exp(std::move(config));
  const ShardReport report = exp.Measure(1500.0, Seconds(6));
  // The live-rebalance contract: reads and writes keep flowing through
  // the whole copy + catch-up + cutover.
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.error_rate, 0.0);
  EXPECT_GE(report.achieved_qps, 0.9 * 1500.0);
  // The migration actually ran to completion and moved data.
  EXPECT_TRUE(report.migration.done);
  EXPECT_GT(report.migration.shards_moved, 0);
  EXPECT_GT(report.migration.bulk_bytes, 0);
  EXPECT_GT(report.migration.transfers, 0);
  EXPECT_GT(report.migration.duration(), 0.0);
  // ~K/N of 256 shards move to the joiner (loose ketama bounds).
  EXPECT_LE(report.migration.shards_moved, 256 / 4);
}

TEST(ShardExperimentTest, MidRunLeaveDrainsGracefully) {
  ShardExperimentConfig config = BaseConfig();
  config.churn = Churn::kLeave;
  ShardExperiment exp(std::move(config));
  const ShardReport report = exp.Measure(1500.0, Seconds(6));
  EXPECT_EQ(report.failed, 0);
  EXPECT_GE(report.achieved_qps, 0.9 * 1500.0);
  EXPECT_TRUE(report.migration.done);
  EXPECT_GT(report.migration.shards_moved, 0);
}

TEST(ShardExperimentTest, RunsAreDeterministic) {
  ShardExperimentConfig config = BaseConfig();
  config.churn = Churn::kJoin;
  ShardExperiment a(config);
  ShardExperiment b(std::move(config));
  const ShardReport ra = a.Measure(1200.0, Seconds(4));
  const ShardReport rb = b.Measure(1200.0, Seconds(4));
  EXPECT_EQ(ra.done, rb.done);
  EXPECT_EQ(ra.p99_latency, rb.p99_latency);
  EXPECT_EQ(ra.migration.bulk_bytes, rb.migration.bulk_bytes);
  EXPECT_EQ(ra.migration.finished, rb.migration.finished);
  EXPECT_EQ(ra.executed_events, rb.executed_events);
}

// Every report field a sink could perturb: all but executed_events.
void ExpectSameSimulatedOutputs(const ShardReport& a, const ShardReport& b) {
  EXPECT_EQ(a.target_qps, b.target_qps);
  EXPECT_EQ(a.achieved_qps, b.achieved_qps);
  EXPECT_EQ(a.goodput_qps, b.goodput_qps);
  EXPECT_EQ(a.done, b.done);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.error_rate, b.error_rate);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.store_power, b.store_power);
  EXPECT_EQ(a.queries_per_joule, b.queries_per_joule);
  EXPECT_EQ(a.cross_rack_replica_fraction, b.cross_rack_replica_fraction);
  EXPECT_EQ(a.max_rack_uplink_busy, b.max_rack_uplink_busy);
  EXPECT_EQ(a.max_core_link_busy, b.max_core_link_busy);
  EXPECT_EQ(a.migration.shards_moved, b.migration.shards_moved);
  EXPECT_EQ(a.migration.transfers, b.migration.transfers);
  EXPECT_EQ(a.migration.bulk_bytes, b.migration.bulk_bytes);
  EXPECT_EQ(a.migration.catchup_bytes, b.migration.catchup_bytes);
  EXPECT_EQ(a.migration.catchup_rounds, b.migration.catchup_rounds);
  EXPECT_EQ(a.migration.started, b.migration.started);
  EXPECT_EQ(a.migration.finished, b.migration.finished);
  EXPECT_EQ(a.migration.done, b.migration.done);
  EXPECT_EQ(a.p99_intended_latency, b.p99_intended_latency);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.slo_good_fraction, b.slo_good_fraction);
  EXPECT_EQ(a.slo_goodput_per_joule, b.slo_goodput_per_joule);
}

TEST(ShardExperimentTest, TracingEveryQueryChangesNoSimulatedEvent) {
  // Sampled spans and residencies live in pooled records that callees
  // borrow by reference through the join migration; tracing every query
  // must leave the simulation untouched and the energy ledger conserved.
  // A null sink pointer is the only way to switch a plane off, so an
  // attached registry and telemetry plane must change no report field
  // either: only their own sampling ticks add engine events.
  ShardExperimentConfig config = BaseConfig();
  config.churn = Churn::kJoin;
  ShardExperiment untraced(config);
  obs::Tracer tracer;
  obs::EnergyAttributor energy;
  config.tracer = &tracer;
  config.energy = &energy;
  config.trace_sample_every = 1;
  ShardExperiment traced(config);
  obs::Tracer all_tracer;
  obs::EnergyAttributor all_energy;
  obs::MetricsRegistry metrics;
  obs::Telemetry telemetry;
  config.tracer = &all_tracer;
  config.energy = &all_energy;
  config.metrics = &metrics;
  config.telemetry = &telemetry;
  ShardExperiment all_planes(std::move(config));
  const ShardReport ru = untraced.Measure(1200.0, Seconds(4));
  const ShardReport rt = traced.Measure(1200.0, Seconds(4));
  const ShardReport ra = all_planes.Measure(1200.0, Seconds(4));
  ExpectSameSimulatedOutputs(rt, ru);
  EXPECT_EQ(rt.executed_events, ru.executed_events);
  EXPECT_GT(tracer.size(), 0u);
  ExpectSameSimulatedOutputs(ra, ru);
  EXPECT_GT(ra.executed_events, ru.executed_events);
  EXPECT_FALSE(metrics.series().rows.empty());
  EXPECT_GT(telemetry.ticks(), 0u);

  const obs::EnergyLedger ledger = energy.TakeLedger();
  ASSERT_FALSE(ledger.rows.empty());
  Joules attributed = 0;
  for (const obs::SpanEnergyRow& row : ledger.rows) attributed += row.joules;
  EXPECT_NEAR(attributed + ledger.unattributed_joules, ledger.total_joules,
              ledger.total_joules * 1e-9);
}

TEST(ShardExperimentTest, MetricsNextToTelemetryAddNoSamplingEvent) {
  // One sampling clock per run: the metrics registry's 1 s tick runs the
  // telemetry step, so attaching a registry next to the telemetry plane
  // adds no engine event and leaves the telemetry exports unchanged.
  ShardExperimentConfig config = BaseConfig();
  config.churn = Churn::kJoin;
  obs::Telemetry telemetry_only;
  config.telemetry = &telemetry_only;
  ShardExperiment one_plane(config);
  obs::Telemetry telemetry;
  obs::MetricsRegistry metrics;
  config.telemetry = &telemetry;
  config.metrics = &metrics;
  ShardExperiment both_planes(std::move(config));
  const ShardReport r1 = one_plane.Measure(1200.0, Seconds(4));
  const ShardReport r2 = both_planes.Measure(1200.0, Seconds(4));
  ExpectSameSimulatedOutputs(r2, r1);
  EXPECT_EQ(r2.executed_events, r1.executed_events);
  EXPECT_FALSE(metrics.series().rows.empty());
  EXPECT_GT(telemetry.ticks(), 0u);
  EXPECT_EQ(telemetry.ticks(), telemetry_only.ticks());
  EXPECT_EQ(obs::RenderTelemetryCsv({telemetry.series()}),
            obs::RenderTelemetryCsv({telemetry_only.series()}));
  EXPECT_EQ(obs::RenderAlertsCsv({telemetry.TakeAlerts()}),
            obs::RenderAlertsCsv({telemetry_only.TakeAlerts()}));
}

TEST(ShardExperimentTest, OversubscriptionBendsTheThroughputCurve) {
  // Write-heavy load so chain replication pounds the uplinks.
  ShardExperimentConfig wide = BaseConfig();
  wide.get_fraction = 0.2;
  wide.rack_oversubscription = 1.0;
  ShardExperimentConfig thin = BaseConfig();
  thin.get_fraction = 0.2;
  thin.rack_oversubscription = 32.0;
  const double qps = 8000.0;
  ShardExperiment wide_exp(std::move(wide));
  ShardExperiment thin_exp(std::move(thin));
  const ShardReport full = wide_exp.Measure(qps, Seconds(4));
  const ShardReport starved = thin_exp.Measure(qps, Seconds(4));
  // With full-bisection uplinks the tier keeps up; at 32x
  // oversubscription the rack uplinks saturate and in-window completions
  // (goodput) fall behind the open-loop arrivals while latency blows
  // out. achieved_qps counts arrivals that eventually finish, so it
  // tracks offered load in both configs — goodput is the bend.
  EXPECT_GE(full.goodput_qps, 0.9 * qps);
  EXPECT_LT(starved.goodput_qps, 0.8 * full.goodput_qps);
  EXPECT_GT(starved.p99_latency, 2.0 * full.p99_latency);
  EXPECT_GT(starved.max_rack_uplink_busy, 0.9);
  EXPECT_LT(full.max_rack_uplink_busy, 0.6);
}

TEST(ShardExperimentTest, OverloadFiresTheDefaultLatencyRule) {
  // The shard run arms the same default SLO rules as the kv and web
  // runs: with starved uplinks the tail blows through the SLO, and
  // latency_p99_high fires next to the shard's own uplink rule.
  ShardExperimentConfig config = BaseConfig();
  config.get_fraction = 0.2;
  config.rack_oversubscription = 32.0;
  config.openloop.slo = Milliseconds(20);
  config.openloop.max_outstanding = 512;
  config.openloop.queue_limit = 512;
  obs::Telemetry telemetry;
  config.telemetry = &telemetry;
  ShardExperiment exp(std::move(config));
  const ShardReport report = exp.Measure(8000.0, Seconds(4));
  EXPECT_LT(report.slo_good_fraction, 0.5);
  auto fired = [&telemetry](const std::string& rule) {
    for (const obs::Alert& alert : telemetry.alerts()) {
      if (alert.rule == rule) return true;
    }
    return false;
  };
  EXPECT_TRUE(fired("latency_p99_high"));
  EXPECT_TRUE(fired("uplink_saturated"));
}

TEST(ShardExperimentTest, FailoverDuringAJoinLosesNoAcks) {
  // Failover and churn in one run: two stores crash at the midpoint, just
  // as a join starts migrating; reads and chained writes route around
  // the crashed stores while the handoff completes.
  ShardExperimentConfig config = BaseConfig();
  config.churn = Churn::kJoin;
  ShardExperiment exp(std::move(config));
  const ShardReport report =
      exp.MeasureWithFailover(1500.0, /*failed_nodes=*/2, Seconds(6));
  EXPECT_EQ(report.failed, 0);
  EXPECT_GE(report.achieved_qps, 0.9 * 1500.0);
  EXPECT_TRUE(report.migration.done);
  EXPECT_GT(report.migration.shards_moved, 0);
}

TEST(ShardExperimentDeathTest, InvalidConfigAbortsInEveryBuild) {
  auto with = [](auto edit) {
    ShardExperimentConfig config = BaseConfig();
    edit(config);
    return config;
  };
  // No load generator: every query would draw NextBelow(0).
  EXPECT_DEATH(ShardExperiment(with([](auto& c) { c.client_machines = 0; })),
               "client_machines must be >= 1");
  EXPECT_DEATH(ShardExperiment(with([](auto& c) { c.racks = 0; })),
               "racks must be >= 1");
  EXPECT_DEATH(ShardExperiment(with([](auto& c) { c.nodes_per_rack = 0; })),
               "nodes_per_rack must be >= 1");
  EXPECT_DEATH(ShardExperiment(with([](auto& c) { c.spare_nodes = -1; })),
               "spare_nodes must be >= 0");
  EXPECT_DEATH(ShardExperiment(with([](auto& c) { c.get_fraction = 1.5; })),
               "get_fraction must be in");
  EXPECT_DEATH(ShardExperiment(with([](auto& c) { c.get_fraction = -0.1; })),
               "get_fraction must be in");
  EXPECT_DEATH(ShardExperiment(with([](auto& c) {
                 c.spare_nodes = 0;
                 c.churn = Churn::kJoin;
               })),
               "a join needs spare_nodes >= 1");
}

TEST(ShardExperimentDeathTest, InvalidLoadAbortsInEveryBuild) {
  // Caught before the testbed is built, so each case costs nothing.
  // A negative load would admit requests forever at t = 0.
  EXPECT_DEATH(ShardExperiment(BaseConfig()).Measure(-100.0, Seconds(1)),
               "target qps must be > 0");
  EXPECT_DEATH(ShardExperiment(BaseConfig()).Measure(0.0, Seconds(1)),
               "target qps must be > 0");
  EXPECT_DEATH(ShardExperiment(BaseConfig())
                   .Measure(std::numeric_limits<double>::infinity(),
                            Seconds(1)),
               "target qps must be > 0");
  EXPECT_DEATH(ShardExperiment(BaseConfig()).Measure(100.0, Seconds(-1)),
               "measure must be >= 0");
  EXPECT_DEATH(ShardExperiment(BaseConfig())
                   .MeasureWithFailover(100.0, -1, Seconds(1)),
               "failed_nodes must be >= 0");
}

TEST(ShardExperimentDeathTest, EmptyMigrationBatchAbortsInEveryBuild) {
  // batch_bytes = 0 would make every shard copy loop forever.
  ShardExperimentConfig no_batch = BaseConfig();
  no_batch.migration.batch_bytes = 0;
  EXPECT_DEATH(ShardExperiment(no_batch).Measure(100.0, Seconds(0)),
               "batch_bytes must be > 0");
  ShardExperimentConfig no_shard = BaseConfig();
  no_shard.migration.shard_bytes = 0;
  EXPECT_DEATH(ShardExperiment(no_shard).Measure(100.0, Seconds(0)),
               "shard_bytes must be > 0");
}

}  // namespace
}  // namespace wimpy::shard
