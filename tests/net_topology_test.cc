// Hierarchical topology (net/topology.h) on the multi-hop fabric: path
// latency composition, oversubscription bandwidth caps at each layer,
// uplink sharing, the paper's rooms as a one-rack tree, and the
// build-time checks (one route per group pair, no link after
// PublishMetrics).
#include "net/topology.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hw/profiles.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "sim/process.h"

namespace wimpy::net {
namespace {

// 4 racks x 2 nodes in 2 pods of Edison-class boxes (100 Mbps NICs).
// Rack oversubscription 4: uplink = 2 * 100 / 4 = 50 Mbps.
// Core oversubscription 4: pod uplink = 2 * 50 / 4 = 25 Mbps.
class TopologyTest : public ::testing::Test {
 protected:
  static HierarchicalTopologyConfig Config() {
    HierarchicalTopologyConfig config;
    config.racks = 4;
    config.racks_per_pod = 2;
    config.nodes_per_rack = 2;
    config.node_bandwidth = Mbps(100);
    config.rack_oversubscription = 4.0;
    config.core_oversubscription = 4.0;
    return config;
  }

  TopologyTest() : fabric_(&sched_), topo_(&fabric_, Config()) {
    for (int r = 0; r < 4; ++r) {
      for (int i = 0; i < 2; ++i) {
        nodes_.push_back(std::make_unique<hw::ServerNode>(
            &sched_, hw::EdisonProfile(), r * 2 + i));
        fabric_.AddNode(nodes_.back().get(), topo_.RackGroup(r));
      }
    }
  }

  sim::Process DoTransfer(int src, int dst, Bytes n, double* done_at) {
    co_await fabric_.Transfer(src, dst, n);
    *done_at = sched_.now();
  }

  sim::Scheduler sched_;
  Fabric fabric_;
  HierarchicalTopology topo_;
  std::vector<std::unique_ptr<hw::ServerNode>> nodes_;
};

TEST_F(TopologyTest, UplinkBandwidthMath) {
  EXPECT_NEAR(topo_.rack_uplink_bandwidth(), Mbps(50), 1);
  EXPECT_NEAR(topo_.pod_uplink_bandwidth(0), Mbps(25), 1);
  EXPECT_EQ(topo_.pods(), 2);
  EXPECT_EQ(topo_.PodOfRack(0), 0);
  EXPECT_EQ(topo_.PodOfRack(3), 1);
}

TEST_F(TopologyTest, PathLatencyComposes) {
  // Edison endpoint latency is 0.65 ms per side.
  const Duration endpoints = 2 * Milliseconds(0.65);
  // Same rack: ToR only, no uplink hops.
  EXPECT_NEAR(fabric_.Latency(0, 1), endpoints, 1e-9);
  // Same pod, different rack: two ToR uplink hops through the agg.
  EXPECT_NEAR(fabric_.Latency(0, 2), endpoints + 2 * Microseconds(5),
              1e-9);
  // Cross pod: two uplink hops plus two core hops.
  EXPECT_NEAR(fabric_.Latency(0, 6),
              endpoints + 2 * Microseconds(5) + 2 * Microseconds(20),
              1e-9);
}

TEST_F(TopologyTest, RackOversubscriptionCapsCrossRackFlow) {
  double done_at = -1;
  // Same pod: min(100 Mbps NIC, 50 Mbps uplink) = 6.25 MB/s.
  sim::Spawn(sched_, DoTransfer(0, 2, MB(6.25), &done_at));
  sched_.Run();
  EXPECT_NEAR(done_at, 1.0, 0.01);
}

TEST_F(TopologyTest, CoreOversubscriptionBitesCrossPod) {
  double done_at = -1;
  // Cross pod: the 25 Mbps pod uplink dominates -> 3.125 MB/s.
  sim::Spawn(sched_, DoTransfer(0, 6, MB(6.25), &done_at));
  sched_.Run();
  EXPECT_NEAR(done_at, 2.0, 0.01);
}

TEST_F(TopologyTest, FlowsShareTheRackUplink) {
  std::vector<double> done(2, -1);
  // Two flows out of rack0 (distinct src/dst NICs) split the 50 Mbps
  // uplink: each gets 25 Mbps.
  sim::Spawn(sched_, DoTransfer(0, 2, MB(6.25), &done[0]));
  sim::Spawn(sched_, DoTransfer(1, 3, MB(6.25), &done[1]));
  sched_.Run();
  EXPECT_NEAR(done[0], 2.0, 0.05);
  EXPECT_NEAR(done[1], 2.0, 0.05);
  // The uplink saw the traffic; the idle rack3 uplink did not.
  EXPECT_GT(fabric_.GroupLinkAverageBusyFraction(topo_.RackGroup(0),
                                                 topo_.AggGroup(0)),
            0.0);
  EXPECT_EQ(fabric_.GroupLinkAverageBusyFraction(topo_.RackGroup(3),
                                                 topo_.AggGroup(1)),
            0.0);
}

TEST_F(TopologyTest, AttachToCoreReachesEveryRack) {
  auto client = std::make_unique<hw::ServerNode>(
      &sched_, hw::DellR620Profile(), 100);
  topo_.AttachToCore("client-room", {Gbps(10), Milliseconds(0.02)});
  fabric_.AddNode(client.get(), "client-room");
  // Dell 0.12 ms + Edison 0.65 ms endpoints, then access + core + uplink
  // hops.
  EXPECT_NEAR(fabric_.Latency(100, 0),
              Milliseconds(0.12) + Milliseconds(0.65) + Milliseconds(0.02) +
                  Microseconds(20) + Microseconds(5),
              1e-9);
  double done_at = -1;
  // The way in crosses core -> agg (25 Mbps pod uplink) -> rack; the pod
  // uplink is the narrowest segment.
  sim::Spawn(sched_, DoTransfer(100, 0, MB(6.25), &done_at));
  sched_.Run();
  EXPECT_NEAR(done_at, 2.0, 0.01);
}

TEST(TopologyMetricsTest, WholeTreePublishesOneGaugePerLink) {
  sim::Scheduler sched;
  Fabric fabric(&sched);
  HierarchicalTopologyConfig config;
  config.racks = 3;
  config.racks_per_pod = 2;
  config.nodes_per_rack = 4;
  config.node_bandwidth = Mbps(100);
  HierarchicalTopology topo(&fabric, config);
  topo.AttachToCore("clients", {Gbps(10), Milliseconds(0.02)});
  obs::MetricsRegistry registry;
  fabric.PublishMetrics(&registry, "net");
  // 3 rack uplinks + 2 pod uplinks + the clients' access link.
  EXPECT_EQ(registry.probe_count(), 6u);
}

TEST(TopologyMetricsTest, OneRackTreeLinksTheRoomStraightToTheRack) {
  // The degenerate tree is the single-room rig: no agg or core link, and
  // the attached room's access link is the only hop to a node.
  sim::Scheduler sched;
  Fabric fabric(&sched);
  HierarchicalTopologyConfig config;
  config.racks = 1;
  config.nodes_per_rack = 2;
  config.node_bandwidth = Mbps(100);
  HierarchicalTopology topo(&fabric, config);
  topo.AttachToCore("client-room", {Gbps(10), Milliseconds(0.02)});
  obs::MetricsRegistry registry;
  fabric.PublishMetrics(&registry, "net");
  registry.Start(&sched);  // one sample names the probes
  registry.Stop();
  ASSERT_EQ(registry.probe_count(), 1u);
  EXPECT_EQ(registry.series().names[0], "net.link.client-room-rack0");

  hw::ServerNode store(&sched, hw::EdisonProfile(), 0);
  hw::ServerNode client(&sched, hw::DellR620Profile(), 1);
  fabric.AddNode(&store, topo.RackGroup(0));
  fabric.AddNode(&client, "client-room");
  EXPECT_EQ(fabric.Latency(client.id(), store.id()),
            client.nic().endpoint_latency() +
                store.nic().endpoint_latency() + Milliseconds(0.02));
}

// The paper's web rooms (§5.1.2): the Edison room is the rack, the client
// and Dell rooms attach to it, and clients reach the Dell room over their
// own 2 Gbps link, never through the Edison room.
class PaperRoomsTest : public ::testing::Test {
 protected:
  PaperRoomsTest()
      : fabric_(&sched_),
        rooms_(&fabric_, {.racks = 1, .rack_name = "edison-room"}),
        edison_(&sched_, hw::EdisonProfile(), 0),
        dell_(&sched_, hw::DellR620Profile(), 1),
        client_(&sched_, hw::DellR620Profile(), 2) {
    rooms_.AttachToCore("client-room", kClientEdisonLink);
    rooms_.AttachToCore("dell-room", kEdisonDellLink);
    rooms_.LinkRooms("client-room", "dell-room", kClientDellLink);
    fabric_.AddNode(&edison_, "edison-room");
    fabric_.AddNode(&dell_, "dell-room");
    fabric_.AddNode(&client_, "client-room");
  }

  sim::Scheduler sched_;
  Fabric fabric_;
  HierarchicalTopology rooms_;
  hw::ServerNode edison_, dell_, client_;
};

TEST_F(PaperRoomsTest, ClientToDellCrossesOnlyTheDirectLink) {
  const Duration endpoints = client_.nic().endpoint_latency() +
                             dell_.nic().endpoint_latency();
  // 0.02 ms, not the 0.07 ms of client → Edison → Dell.
  EXPECT_EQ(fabric_.Latency(client_.id(), dell_.id()),
            endpoints + Milliseconds(0.02));

  auto xfer = [&]() -> sim::Process {
    co_await fabric_.Transfer(client_.id(), dell_.id(), MB(10));
  };
  sim::Spawn(sched_, xfer());
  sched_.Run();
  EXPECT_GT(
      fabric_.GroupLinkAverageBusyFraction("client-room", "dell-room"), 0.0);
  EXPECT_EQ(
      fabric_.GroupLinkAverageBusyFraction("client-room", "edison-room"),
      0.0);
  EXPECT_EQ(
      fabric_.GroupLinkAverageBusyFraction("dell-room", "edison-room"), 0.0);
}

TEST_F(PaperRoomsTest, PublishesTheThreeRoomLinksInNameOrder) {
  obs::MetricsRegistry registry;
  fabric_.PublishMetrics(&registry, "net");
  registry.Start(&sched_);  // one sample names the probes
  registry.Stop();
  EXPECT_EQ(registry.series().names,
            (std::vector<std::string>{"net.link.client-room-dell-room",
                                      "net.link.client-room-edison-room",
                                      "net.link.dell-room-edison-room"}));
}

TEST(TopologyDeathTest, EachGroupPairIsRoutedOnce) {
  sim::Scheduler sched;
  Fabric fabric(&sched);
  HierarchicalTopology rooms(&fabric, {.racks = 1, .rack_name = "room"});
  rooms.AttachToCore("clients", kClientEdisonLink);
  EXPECT_DEATH(rooms.AttachToCore("clients", kClientEdisonLink),
               "group pair routed twice");
  EXPECT_DEATH(rooms.LinkRooms("clients", "elsewhere", kClientDellLink),
               "LinkRooms joins two attached rooms");
}

TEST(TopologyDeathTest, LinkAddedAfterPublishMetricsAborts) {
  sim::Scheduler sched;
  Fabric fabric(&sched);
  HierarchicalTopology rooms(&fabric, {.racks = 1, .rack_name = "room"});
  rooms.AttachToCore("clients", kClientEdisonLink);
  obs::MetricsRegistry registry;
  fabric.PublishMetrics(&registry, "net");
  EXPECT_EQ(registry.probe_count(), 1u);
  EXPECT_DEATH(rooms.AttachToCore("late", kClientEdisonLink),
               "group link added after PublishMetrics");
}

TEST(TopologyDeathTest, InvalidGeometryAbortsInEveryBuild) {
  sim::Scheduler sched;
  Fabric fabric(&sched);
  HierarchicalTopologyConfig config;
  config.node_bandwidth = Mbps(100);
  HierarchicalTopologyConfig no_pods = config;
  no_pods.racks_per_pod = 0;  // the pod count would divide by zero
  EXPECT_DEATH(HierarchicalTopology(&fabric, no_pods),
               "racks_per_pod must be > 0");
  HierarchicalTopologyConfig no_bandwidth = config;
  no_bandwidth.node_bandwidth = 0;  // would build zero-bandwidth links
  EXPECT_DEATH(HierarchicalTopology(&fabric, no_bandwidth),
               "node_bandwidth must be > 0");
  HierarchicalTopologyConfig undersubscribed = config;
  undersubscribed.rack_oversubscription = 0.5;
  EXPECT_DEATH(HierarchicalTopology(&fabric, undersubscribed),
               "rack_oversubscription must be >= 1");
  HierarchicalTopologyConfig named = config;
  named.rack_name = "room";  // three racks cannot share one name
  EXPECT_DEATH(HierarchicalTopology(&fabric, named),
               "rack_name names the rack of a one-rack tree");
  // A one-rack tree reads no uplink input, so it needs none.
  HierarchicalTopology room(&fabric, {.racks = 1, .rack_name = "room"});
  EXPECT_EQ(room.RackGroup(0), "room");
  EXPECT_EQ(room.rack_uplink_bandwidth(), 0);
}

}  // namespace
}  // namespace wimpy::net
