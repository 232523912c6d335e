#include "net/fabric.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hw/profiles.h"
#include "net/topology.h"
#include "sim/process.h"

namespace wimpy::net {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  FabricTest()
      : fabric_(&sched_),
        rooms_(&fabric_, {.racks = 1, .rack_name = "edison-room"}) {
    rooms_.AttachToCore("dell-room", kEdisonDellLink);
    for (int i = 0; i < 2; ++i) {
      edison_.push_back(
          std::make_unique<hw::ServerNode>(&sched_, hw::EdisonProfile(), i));
      fabric_.AddNode(edison_.back().get(), "edison-room");
    }
    for (int i = 10; i < 12; ++i) {
      dell_.push_back(std::make_unique<hw::ServerNode>(
          &sched_, hw::DellR620Profile(), i));
      fabric_.AddNode(dell_.back().get(), "dell-room");
    }
  }

  sim::Process DoTransfer(int src, int dst, Bytes n, double* done_at) {
    co_await fabric_.Transfer(src, dst, n);
    *done_at = sched_.now();
  }

  sim::Scheduler sched_;
  Fabric fabric_;
  HierarchicalTopology rooms_;
  std::vector<std::unique_ptr<hw::ServerNode>> edison_;
  std::vector<std::unique_ptr<hw::ServerNode>> dell_;
};

TEST_F(FabricTest, PingLatenciesMatchSection44) {
  // Edison<->Edison ~1.3 ms RTT... the paper reports one-way ping numbers;
  // our Latency() is one-way and should reproduce them.
  EXPECT_NEAR(fabric_.Latency(0, 1), Milliseconds(1.3), 1e-9);
  EXPECT_NEAR(fabric_.Latency(10, 11), Milliseconds(0.24), 1e-9);
  EXPECT_NEAR(fabric_.Latency(0, 10), Milliseconds(0.79), 1e-9);
}

TEST_F(FabricTest, EdisonToEdisonLimitedByNic) {
  double done_at = -1;
  // 1 GB at 100 Mbps = 1e9 / 12.5e6 = 80 s.
  sim::Spawn(sched_, DoTransfer(0, 1, GB(1), &done_at));
  sched_.Run();
  EXPECT_NEAR(done_at, 80.0, 0.01);
}

TEST_F(FabricTest, DellToDellTenTimesFaster) {
  double done_at = -1;
  sim::Spawn(sched_, DoTransfer(10, 11, GB(1), &done_at));
  sched_.Run();
  EXPECT_NEAR(done_at, 8.0, 0.01);
}

TEST_F(FabricTest, CrossGroupLimitedByWeakerNic) {
  double done_at = -1;
  sim::Spawn(sched_, DoTransfer(10, 0, GB(1), &done_at));
  sched_.Run();
  EXPECT_NEAR(done_at, 80.0, 0.01);  // Edison rx NIC dominates
}

TEST_F(FabricTest, TwoFlowsShareOneNic) {
  std::vector<double> done(2, -1);
  // Both flows converge on node 0's rx channel.
  sim::Spawn(sched_, DoTransfer(1, 0, MB(12.5), &done[0]));
  sim::Spawn(sched_, DoTransfer(10, 0, MB(12.5), &done[1]));
  sched_.Run();
  // Each gets ~50 Mbps of node 0's 100 Mbps: ~2 s instead of ~1 s.
  EXPECT_NEAR(done[0], 2.0, 0.05);
  EXPECT_NEAR(done[1], 2.0, 0.05);
}

TEST_F(FabricTest, LoopbackIsFast) {
  double done_at = -1;
  sim::Spawn(sched_, DoTransfer(0, 0, GB(1), &done_at));
  sched_.Run();
  EXPECT_LT(done_at, Milliseconds(1));
}

// The awaiter sits in every frame that awaits a transfer.
static_assert(sizeof(Fabric::TransferOp) <= 64);

TEST_F(FabricTest, EmptyTransferTakesNoEngineEvent) {
  double done_at = -1;
  sim::Spawn(sched_, DoTransfer(0, 1, 0, &done_at));
  EXPECT_EQ(sched_.Run(), 1u);  // the spawn itself
  EXPECT_EQ(done_at, 0.0);
  EXPECT_EQ(edison_[0]->nic().bytes_sent(), 0);
  EXPECT_EQ(edison_[1]->nic().bytes_received(), 0);
}

TEST_F(FabricTest, LoopbackCostsOneEventAtLoopbackLatency) {
  double done_at = -1;
  sim::Spawn(sched_, DoTransfer(0, 0, GB(1), &done_at));
  EXPECT_EQ(sched_.Run(), 2u);  // the spawn, then the loopback delay
  EXPECT_EQ(done_at, fabric_.Latency(0, 0));
  EXPECT_EQ(done_at, Microseconds(20));
  EXPECT_EQ(edison_[0]->nic().bytes_sent(), 0);
}

TEST_F(FabricTest, RemoteTransferJoinsEverySegmentAfterTheLatency) {
  // Edison -> Dell crosses the room link: one latency event, then the
  // tx, link and rx segments serve concurrently; the slowest one (the
  // Edison NIC) resumes the caller.
  double done_at = -1;
  sim::Spawn(sched_, DoTransfer(0, 10, MB(1), &done_at));
  sched_.Run(fabric_.Latency(0, 10) / 2);
  EXPECT_EQ(edison_[0]->nic().bytes_sent(), MB(1));  // counted at suspend
  EXPECT_EQ(edison_[0]->nic().tx().active_jobs(), 0u);
  sched_.Run(fabric_.Latency(0, 10) * 1.5);
  EXPECT_EQ(edison_[0]->nic().tx().active_jobs(), 1u);
  EXPECT_EQ(dell_[0]->nic().rx().active_jobs(), 1u);
  sched_.Run();
  EXPECT_GT(done_at, fabric_.Latency(0, 10));
  EXPECT_EQ(edison_[0]->nic().tx().active_jobs(), 0u);
  EXPECT_EQ(dell_[0]->nic().rx().active_jobs(), 0u);
}

TEST_F(FabricTest, ByteCountersTrackTraffic) {
  double done_at = -1;
  sim::Spawn(sched_, DoTransfer(0, 10, MB(5), &done_at));
  sched_.Run();
  EXPECT_EQ(edison_[0]->nic().bytes_sent(), MB(5));
  EXPECT_EQ(dell_[0]->nic().bytes_received(), MB(5));
}

TEST_F(FabricTest, GroupLinkUtilisationVisible) {
  EXPECT_EQ(
      fabric_.GroupLinkAverageBusyFraction("edison-room", "dell-room"), 0.0);
  double done_at = -1;
  sim::Spawn(sched_, DoTransfer(10, 0, GB(1), &done_at));
  sched_.Run(1.0);
  EXPECT_GT(
      fabric_.GroupLinkAverageBusyFraction("edison-room", "dell-room"), 0.0);
  sched_.Run();
}

TEST(FabricAggregateTest, GroupLinkCapsAggregateThroughput) {
  // Ten Dell senders into ten Dell receivers across a 1 Gbps room link:
  // each flow could do 1 Gbps alone, but the aggregate pipe is shared.
  sim::Scheduler sched;
  Fabric fabric(&sched);
  HierarchicalTopology rooms(&fabric, {.racks = 1, .rack_name = "room-a"});
  rooms.AttachToCore("room-b", {Gbps(1), 0});
  std::vector<std::unique_ptr<hw::ServerNode>> nodes;
  for (int i = 0; i < 20; ++i) {
    nodes.push_back(std::make_unique<hw::ServerNode>(
        &sched, hw::DellR620Profile(), i));
    fabric.AddNode(nodes.back().get(), i < 10 ? "room-a" : "room-b");
  }
  std::vector<double> done(10, -1);
  auto xfer = [&](int src, int dst, double* out) -> sim::Process {
    co_await fabric.Transfer(src, dst, MB(125));
    *out = sched.now();
  };
  for (int i = 0; i < 10; ++i) {
    sim::Spawn(sched, xfer(i, 10 + i, &done[i]));
  }
  sched.Run();
  // 10 x 125 MB through a shared 125 MB/s link: ~10 s, not ~1 s.
  for (double t : done) EXPECT_NEAR(t, 10.0, 0.1);
}

// Topology building checks in every build type: in a Release build a
// negative id used to resize the endpoint table to SIZE_MAX, a duplicate
// id silently replaced an endpoint, and a zero-bandwidth link scheduled
// completions at +inf.
TEST(FabricDeathTest, BadNodesAbortInEveryBuild) {
  sim::Scheduler sched;
  Fabric fabric(&sched);
  hw::ServerNode a(&sched, hw::EdisonProfile(), 3);
  hw::ServerNode same_id(&sched, hw::EdisonProfile(), 3);
  hw::ServerNode negative(&sched, hw::EdisonProfile(), -1);
  fabric.AddNode(&a, "room");
  EXPECT_DEATH(fabric.AddNode(nullptr, "room"), "node must not be null");
  EXPECT_DEATH(fabric.AddNode(&negative, "room"),
               "node ids must be non-negative");
  EXPECT_DEATH(fabric.AddNode(&same_id, "other-room"), "duplicate node id");
  EXPECT_TRUE(fabric.HasNode(3));
  EXPECT_EQ(fabric.GroupIdOf(3), 0);  // "room", the first group interned
}

// Links and paths are declared only through the topology builder, so
// these reach the fabric's checks through it.
TEST(FabricDeathTest, BadLinksAndPathsAbortInEveryBuild) {
  sim::Scheduler sched;
  Fabric fabric(&sched);
  HierarchicalTopology room(&fabric, {.racks = 1, .rack_name = "a"});
  EXPECT_DEATH(room.AttachToCore("b", {0, 0}),
               "group link bandwidth must be > 0");
  EXPECT_DEATH(room.AttachToCore("b", {-Gbps(1), 0}),
               "group link bandwidth must be > 0");
  EXPECT_DEATH(room.AttachToCore("a", {Gbps(1), 0}),
               "a group link must join two distinct groups");
  // Attaching a rack as if it were a room would route it to itself.
  HierarchicalTopologyConfig tree;
  tree.racks = 2;
  tree.node_bandwidth = Gbps(1);
  HierarchicalTopology racks(&fabric, tree);
  EXPECT_DEATH(racks.AttachToCore(racks.RackGroup(0), {Gbps(1), 0}),
               "a group path must join two distinct groups");
}

TEST(FabricDeathTest, NullSchedulerAbortsInEveryBuild) {
  EXPECT_DEATH(Fabric(nullptr), "scheduler must not be null");
}

}  // namespace
}  // namespace wimpy::net
