// Edge-case coverage for the network layer: TIME_WAIT slot occupancy,
// zero-byte transfers, latency composition, and backlog bookkeeping under
// the hold_backlog (accept-queue) protocol.
#include <gtest/gtest.h>

#include <memory>

#include "hw/profiles.h"
#include "net/tcp.h"
#include "net/topology.h"
#include "sim/process.h"

namespace wimpy::net {
namespace {

class NetEdgeTest : public ::testing::Test {
 protected:
  NetEdgeTest() : fabric_(&sched_) {
    a_ = std::make_unique<hw::ServerNode>(&sched_, hw::DellR620Profile(),
                                          0);
    b_ = std::make_unique<hw::ServerNode>(&sched_, hw::DellR620Profile(),
                                          1);
    fabric_.AddNode(a_.get(), "room");
    fabric_.AddNode(b_.get(), "room");
  }

  sim::Scheduler sched_;
  Fabric fabric_;
  std::unique_ptr<hw::ServerNode> a_, b_;
};

TEST_F(NetEdgeTest, ZeroByteTransferCompletesInstantly) {
  double done_at = -1;
  auto xfer = [&]() -> sim::Process {
    co_await fabric_.Transfer(0, 1, 0);
    done_at = sched_.now();
  };
  sim::Spawn(sched_, xfer());
  sched_.Run();
  EXPECT_EQ(done_at, 0.0);
}

TEST_F(NetEdgeTest, TimeWaitHoldsConnectionSlots) {
  TcpConfig server_cfg;
  server_cfg.max_connections = 2;
  server_cfg.time_wait = Seconds(30);
  TcpHost client(&fabric_, 0, TcpConfig{});
  TcpHost server(&fabric_, 1, server_cfg);

  auto one = [&](ConnectResult* out) -> sim::Process {
    TcpConnection conn(&client, &server);
    *out = co_await conn.Connect();
    conn.Close();  // slot enters TIME_WAIT for 30 s
  };
  ConnectResult r1, r2, r3;
  sim::Spawn(sched_, one(&r1));
  sched_.Run(1.0);
  sim::Spawn(sched_, one(&r2));
  sched_.Run(2.0);
  EXPECT_TRUE(r1.status.ok());
  EXPECT_TRUE(r2.status.ok());
  EXPECT_EQ(server.connections_open(), 2);  // both lingering

  // A third connection within TIME_WAIT finds no slots.
  sim::Spawn(sched_, one(&r3));
  sched_.Run(3.0);
  EXPECT_FALSE(r3.status.ok());

  // After TIME_WAIT expires, slots return.
  sched_.Run(40.0);
  EXPECT_EQ(server.connections_open(), 0);
  ConnectResult r4;
  sim::Spawn(sched_, one(&r4));
  sched_.Run(45.0);
  EXPECT_TRUE(r4.status.ok());
  sched_.Run();
}

TEST_F(NetEdgeTest, HoldBacklogKeepsSlotUntilExplicitRelease) {
  TcpConfig server_cfg;
  server_cfg.listen_backlog = 1;
  TcpHost client(&fabric_, 0, TcpConfig{});
  TcpHost server(&fabric_, 1, server_cfg);

  ConnectResult r1, r2;
  auto hold = [&]() -> sim::Process {
    TcpConnection conn(&client, &server);
    r1 = co_await conn.Connect(/*hold_backlog=*/true);
    // Never released: simulates a stuck accept loop.
    co_await sim::Delay(sched_, 100.0);
  };
  sim::Spawn(sched_, hold());
  sched_.Run(1.0);
  EXPECT_TRUE(r1.status.ok());
  EXPECT_EQ(server.backlog_depth(), 1);

  // Second SYN finds the backlog full and backs off until giving up.
  auto second = [&]() -> sim::Process {
    TcpConnection conn(&client, &server);
    r2 = co_await conn.Connect();
  };
  sim::Spawn(sched_, second());
  sched_.Run(20.0);
  EXPECT_EQ(r2.status.code(), StatusCode::kUnavailable);

  // Manual release empties the queue.
  server.LeaveBacklog();
  EXPECT_EQ(server.backlog_depth(), 0);
  sched_.Run();
}

TEST_F(NetEdgeTest, LatencyComposesEndpointsAndLink) {
  hw::ServerNode c(&sched_, hw::EdisonProfile(), 2);
  Fabric fabric(&sched_);
  HierarchicalTopology rooms(&fabric, {.racks = 1, .rack_name = "x"});
  rooms.AttachToCore("y", {Gbps(1), Milliseconds(0.1)});
  hw::ServerNode d1(&sched_, hw::DellR620Profile(), 0);
  fabric.AddNode(&d1, "x");
  fabric.AddNode(&c, "y");
  EXPECT_NEAR(fabric.Latency(0, 2),
              Milliseconds(0.12 + 0.65 + 0.1), 1e-12);
  // Without a configured link, only endpoint latencies count.
  Fabric bare(&sched_);
  hw::ServerNode d2(&sched_, hw::DellR620Profile(), 5);
  hw::ServerNode e2(&sched_, hw::EdisonProfile(), 6);
  bare.AddNode(&d2, "p");
  bare.AddNode(&e2, "q");
  EXPECT_NEAR(bare.Latency(5, 6), Milliseconds(0.77), 1e-12);
}

TEST_F(NetEdgeTest, RoundTripIsTwiceOneWay) {
  double done_at = -1;
  auto ping = [&]() -> sim::Process {
    co_await fabric_.RoundTrip(0, 1);
    done_at = sched_.now();
  };
  sim::Spawn(sched_, ping());
  sched_.Run();
  EXPECT_NEAR(done_at, 2 * fabric_.Latency(0, 1), 1e-12);
}

}  // namespace
}  // namespace wimpy::net
