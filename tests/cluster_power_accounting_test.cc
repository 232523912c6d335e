// Cross-layer energy-accounting properties: the cluster-level joules the
// experiment harnesses report must equal the sum of per-node integrals,
// stay additive across disjoint role sets, and be insensitive to sampling.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "hw/profiles.h"
#include "obs/metrics.h"
#include "sim/process.h"

namespace wimpy::cluster {
namespace {

sim::Process Burn(hw::ServerNode* node, double seconds) {
  co_await node->Compute(node->cpu().spec().dmips_per_thread * seconds);
}

class PowerAccountingTest : public ::testing::Test {
 protected:
  PowerAccountingTest() : fabric_(&sched_), cluster_(&sched_, &fabric_) {}

  sim::Scheduler sched_;
  net::Fabric fabric_;
  Cluster cluster_;
};

TEST_F(PowerAccountingTest, ClusterJoulesEqualSumOfNodes) {
  auto a = cluster_.AddNodes(hw::EdisonProfile(), 3, "a", "room");
  auto b = cluster_.AddNodes(hw::DellR620Profile(), 2, "b", "room");
  sim::Spawn(sched_, Burn(a[0], 5.0));
  sim::Spawn(sched_, Burn(b[1], 3.0));
  sched_.ScheduleAt(10.0, [] {});
  sched_.Run();
  Joules sum = 0;
  for (auto* node : cluster_.AllNodes()) {
    sum += node->power().CumulativeJoules();
  }
  EXPECT_NEAR(cluster_.CumulativeJoules(), sum, 1e-9);
}

TEST_F(PowerAccountingTest, RoleEnergyIsAdditive) {
  cluster_.AddNodes(hw::EdisonProfile(), 4, "web", "room");
  cluster_.AddNodes(hw::EdisonProfile(), 2, "cache", "room");
  cluster_.AddNodes(hw::DellR620Profile(), 1, "db", "room");
  sched_.ScheduleAt(20.0, [] {});
  sched_.Run();
  const Joules web = cluster_.CumulativeJoules({"web"});
  const Joules cache = cluster_.CumulativeJoules({"cache"});
  const Joules db = cluster_.CumulativeJoules({"db"});
  EXPECT_NEAR(web + cache, cluster_.CumulativeJoules({"web", "cache"}),
              1e-9);
  EXPECT_NEAR(web + cache + db, cluster_.CumulativeJoules(), 1e-9);
  // Idle analytic check.
  EXPECT_NEAR(web, 4 * 1.40 * 20.0, 1e-6);
  EXPECT_NEAR(db, 52.0 * 20.0, 1e-6);
}

TEST_F(PowerAccountingTest, SamplerDoesNotPerturbEnergy) {
  auto nodes = cluster_.AddNodes(hw::EdisonProfile(), 2, "w", "room");
  sim::Spawn(sched_, Burn(nodes[0], 8.0));
  obs::MetricsRegistry sampler;
  cluster_.PublishMetrics(&sampler, {"w"}, "w");
  sampler.Start(&sched_, 0.25);
  sched_.Run(/*until=*/16.0);
  sampler.Stop();
  sched_.Run();
  // Energy equals the analytic value: 8 s of one busy core plus idle.
  const auto& p = hw::EdisonProfile().power;
  const double core_frac = 0.5;
  const Joules expected =
      2 * p.idle * 16.0 +
      (p.busy - p.idle) * p.cpu_weight * core_frac * 8.0;
  EXPECT_NEAR(cluster_.CumulativeJoules(), expected, expected * 1e-9);
  EXPECT_GE(sampler.series().times.size(), 60u);
}

TEST_F(PowerAccountingTest, WattsMatchDerivativeOfJoules) {
  auto nodes = cluster_.AddNodes(hw::DellR620Profile(), 1, "n", "room");
  sim::Spawn(sched_, Burn(nodes[0], 4.0));
  sched_.Run(/*until=*/2.0);
  const Joules j1 = cluster_.CumulativeJoules();
  const Watts w = cluster_.TotalWatts();
  sched_.Run(/*until=*/2.5);
  const Joules j2 = cluster_.CumulativeJoules();
  EXPECT_NEAR((j2 - j1) / 0.5, w, 1e-9);  // constant power in the window
  sched_.Run();
}

}  // namespace
}  // namespace wimpy::cluster
