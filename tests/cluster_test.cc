#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hw/profiles.h"
#include "obs/metrics.h"
#include "sim/process.h"

namespace wimpy::cluster {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : fabric_(&sched_), cluster_(&sched_, &fabric_) {}

  sim::Scheduler sched_;
  net::Fabric fabric_;
  Cluster cluster_;
};

TEST_F(ClusterTest, AddNodesAssignsRolesAndIds) {
  auto web = cluster_.AddNodes(hw::EdisonProfile(), 24, "web-server",
                               "edison-room");
  auto cache = cluster_.AddNodes(hw::EdisonProfile(), 11, "cache-server",
                                 "edison-room");
  EXPECT_EQ(web.size(), 24u);
  EXPECT_EQ(cache.size(), 11u);
  EXPECT_EQ(cluster_.size(), 35u);
  EXPECT_EQ(cluster_.NodesInRole("web-server").size(), 24u);
  EXPECT_EQ(cluster_.NodesInRole("nonexistent").size(), 0u);
  EXPECT_EQ(web[0]->id(), 0);
  EXPECT_EQ(cache[0]->id(), 24);
  EXPECT_EQ(cluster_.node(24), cache[0]);
  EXPECT_EQ(cluster_.node(999), nullptr);
  EXPECT_EQ(fabric_.GroupIdOf(0), fabric_.GroupIdOf(24));  // edison-room
}

TEST_F(ClusterTest, IdleClusterPowerMatchesTable3) {
  cluster_.AddNodes(hw::EdisonProfile(), 35, "all", "edison-room");
  EXPECT_NEAR(cluster_.TotalWatts(), 49.0, 0.01);  // 35 x 1.40 W
}

TEST_F(ClusterTest, RoleScopedEnergyAccounting) {
  cluster_.AddNodes(hw::EdisonProfile(), 2, "workers", "edison-room");
  cluster_.AddNodes(hw::DellR620Profile(), 1, "master", "dell-room");
  sched_.ScheduleAt(10.0, [] {});
  sched_.Run();
  // Worker-only joules exclude the Dell master — the paper's MapReduce
  // energy accounting does exactly this.
  EXPECT_NEAR(cluster_.CumulativeJoules({"workers"}), 2 * 1.40 * 10, 1e-6);
  EXPECT_NEAR(cluster_.CumulativeJoules(), (2 * 1.40 + 52.0) * 10, 1e-6);
}

sim::Process BurnCpu(hw::ServerNode* node, double seconds) {
  co_await node->Compute(node->cpu().spec().dmips_per_thread * seconds);
}

TEST_F(ClusterTest, MeanUtilisationAcrossRole) {
  auto nodes = cluster_.AddNodes(hw::EdisonProfile(), 4, "w", "edison-room");
  // Load one of four nodes on one of two cores: mean CPU busy = 1/8.
  sim::Spawn(sched_, BurnCpu(nodes[0], 10.0));
  sched_.Run(1.0);
  EXPECT_NEAR(cluster_.MeanCpuBusy("w"), 0.125, 1e-9);
  sched_.Run();
}

TEST_F(ClusterTest, PublishedMetricsRecordTimeline) {
  auto nodes = cluster_.AddNodes(hw::EdisonProfile(), 1, "w", "edison-room");
  obs::MetricsRegistry registry;
  cluster_.PublishMetrics(&registry, {"w"}, "w");
  double progress = 0;
  registry.Add("progress", [&] { return progress; });
  registry.Start(&sched_);
  sim::Spawn(sched_, BurnCpu(nodes[0], 5.0));  // busy [0, 5] on one core
  sched_.ScheduleAt(3.0, [&] { progress = 50.0; });
  // A running registry keeps the event queue non-empty forever; bound the
  // run and then stop it.
  sched_.Run(/*until=*/10.5);
  registry.Stop();
  sched_.Run();
  const obs::MetricsSeries& s = registry.series();
  EXPECT_EQ(s.names, (std::vector<std::string>{"w.cpu_pct", "w.mem_pct",
                                                "w.power_w", "progress"}));
  ASSERT_GE(s.times.size(), 10u);
  EXPECT_EQ(s.times[0], 0.0);
  const std::vector<double> cpu = s.Column("w.cpu_pct");
  const std::vector<double> power = s.Column("w.power_w");
  const std::vector<double> gauge = s.Column("progress");
  EXPECT_NEAR(cpu[2], 50.0, 1e-6);  // one of two cores busy
  EXPECT_NEAR(cpu[7], 0.0, 1e-6);   // after completion
  EXPECT_GT(power[2], 1.40);
  EXPECT_NEAR(power[8], 1.40, 1e-9);
  EXPECT_EQ(gauge[2], 0.0);
  EXPECT_EQ(gauge[4], 50.0);
}

TEST_F(ClusterTest, PublishedMetricsAverageRolesAndSumTheirPower) {
  auto a = cluster_.AddNodes(hw::EdisonProfile(), 1, "a", "edison-room");
  cluster_.AddNodes(hw::EdisonProfile(), 3, "b", "edison-room");
  obs::MetricsRegistry registry;
  cluster_.PublishMetrics(&registry, {"a", "b"}, "ab");
  sim::Spawn(sched_, BurnCpu(a[0], 5.0));
  sched_.Run(/*until=*/1.0);
  const Watts busy_watts = cluster_.TotalWatts({"a", "b"});
  registry.Start(&sched_);
  registry.Stop();
  sched_.Run();
  // Role a: one of two cores busy (50%); role b idle (0%). The gauge is
  // the mean of the two role means, not the mean over four nodes.
  EXPECT_NEAR(registry.series().Column("ab.cpu_pct")[0], 25.0, 1e-9);
  EXPECT_EQ(registry.series().Column("ab.power_w")[0], busy_watts);
}

TEST_F(ClusterTest, PublishedMetricsStopWithTheRegistry) {
  cluster_.AddNodes(hw::EdisonProfile(), 1, "w", "edison-room");
  obs::MetricsRegistry registry;
  cluster_.PublishMetrics(&registry, {"w"}, "w");
  registry.Start(&sched_);
  sched_.ScheduleAt(3.5, [&] { registry.Stop(); });
  sched_.ScheduleAt(10.0, [] {});
  sched_.Run();
  EXPECT_EQ(registry.series().times.size(), 4u);  // t = 0, 1, 2, 3
}

}  // namespace
}  // namespace wimpy::cluster
