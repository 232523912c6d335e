// KV failover routing over the consistent-hash ring (kv/experiment.cc +
// shard/ring.h): a replica failing mid-run must be routed around with no
// lost acks, and span-energy attribution must stay conserved through the
// failure (ISSUE: failover coverage satellite).
#include <gtest/gtest.h>

#include "hw/profiles.h"
#include "kv/experiment.h"
#include "obs/energy.h"
#include "obs/tracer.h"

namespace wimpy::kv {
namespace {

KvExperimentConfig FailoverConfig(obs::EnergyAttributor* energy,
                                  obs::Tracer* tracer) {
  KvExperimentConfig config;
  config.node_profile = hw::EdisonProfile();
  config.node_count = 8;
  config.replication = 2;  // failed primaries' shards stay readable
  config.seed = 4242;
  config.energy = energy;
  // Residency rows exist only for sampled (traced) queries, so trace
  // every query to make the conservation check cover the whole run.
  config.tracer = tracer;
  config.trace_sample_every = 1;
  return config;
}

TEST(KvFailoverTest, RoutesAroundFailedReplicaWithNoLostAcks) {
  obs::EnergyAttributor energy;
  obs::Tracer tracer;
  KvExperiment exp(FailoverConfig(&energy, &tracer));
  const double qps = 600.0;
  const Duration measure = Seconds(6);
  const KvReport report = exp.MeasureWithFailover(qps, /*failed_nodes=*/1,
                                                  measure);

  // Zero lost acks: every query found a healthy owner on the preference
  // walk, before and after the mid-window failure.
  EXPECT_EQ(report.error_rate, 0.0);
  // The surviving tier keeps absorbing the open-loop load.
  EXPECT_GE(report.achieved_qps, 0.9 * qps);
  EXPECT_GT(report.p99_latency, 0.0);

  // Energy attribution survives the failure conserved: attributed rows
  // plus unattributed idle equal the observed total exactly.
  obs::EnergyLedger ledger = energy.TakeLedger();
  ASSERT_FALSE(ledger.rows.empty());
  Joules attributed = 0;
  for (const obs::SpanEnergyRow& row : ledger.rows) {
    EXPECT_GT(row.joules, 0.0);
    attributed += row.joules;
  }
  EXPECT_NEAR(attributed + ledger.unattributed_joules, ledger.total_joules,
              ledger.total_joules * 1e-9);
  EXPECT_GT(ledger.window_joules, 0.0);
}

TEST(KvFailoverTest, AllButOneNodeDownStillServes) {
  obs::EnergyAttributor energy;
  obs::Tracer tracer;
  KvExperiment exp(FailoverConfig(&energy, &tracer));
  // 7 of 8 nodes fail mid-window; the preference walk always ends at the
  // survivor, so no request is dropped (it just queues).
  const KvReport report = exp.MeasureWithFailover(200.0, /*failed_nodes=*/7,
                                                  Seconds(4));
  EXPECT_EQ(report.error_rate, 0.0);
  EXPECT_GT(report.achieved_qps, 0.0);
}

TEST(KvFailoverTest, FailoverRunIsDeterministic) {
  obs::EnergyAttributor e1;
  obs::EnergyAttributor e2;
  obs::Tracer t1;
  obs::Tracer t2;
  KvExperiment a(FailoverConfig(&e1, &t1));
  KvExperiment b(FailoverConfig(&e2, &t2));
  const KvReport ra = a.MeasureWithFailover(600.0, 1, Seconds(4));
  const KvReport rb = b.MeasureWithFailover(600.0, 1, Seconds(4));
  EXPECT_EQ(ra.achieved_qps, rb.achieved_qps);
  EXPECT_EQ(ra.p99_latency, rb.p99_latency);
  EXPECT_EQ(ra.executed_events, rb.executed_events);
  const obs::EnergyLedger la = e1.TakeLedger();
  const obs::EnergyLedger lb = e2.TakeLedger();
  EXPECT_EQ(la.rows.size(), lb.rows.size());
  EXPECT_EQ(la.total_joules, lb.total_joules);
}

TEST(KvFailoverTest, FailingNoNodesIsExactlyMeasure) {
  // Measure and MeasureWithFailover share one run body; with nothing to
  // fail, the failover run schedules no failure event at all.
  KvExperimentConfig config;
  config.node_profile = hw::EdisonProfile();
  config.seed = 77;
  config.openloop.slo = Milliseconds(20);  // exercise the SLO fields too
  KvExperiment exp(std::move(config));
  const KvReport plain = exp.Measure(400.0, Seconds(4));
  const KvReport failover = exp.MeasureWithFailover(400.0, 0, Seconds(4));
  EXPECT_EQ(failover.target_qps, plain.target_qps);
  EXPECT_EQ(failover.achieved_qps, plain.achieved_qps);
  EXPECT_EQ(failover.error_rate, plain.error_rate);
  EXPECT_EQ(failover.mean_latency, plain.mean_latency);
  EXPECT_EQ(failover.p99_latency, plain.p99_latency);
  EXPECT_EQ(failover.store_power, plain.store_power);
  EXPECT_EQ(failover.queries_per_joule, plain.queries_per_joule);
  EXPECT_EQ(failover.executed_events, plain.executed_events);
  EXPECT_EQ(failover.p99_intended_latency, plain.p99_intended_latency);
  EXPECT_EQ(failover.shed, plain.shed);
  EXPECT_EQ(failover.slo_good_fraction, plain.slo_good_fraction);
  EXPECT_EQ(failover.slo_goodput_per_joule, plain.slo_goodput_per_joule);
  EXPECT_GT(plain.achieved_qps, 0.0);
  EXPECT_GT(plain.slo_good_fraction, 0.0);
}

}  // namespace
}  // namespace wimpy::kv
