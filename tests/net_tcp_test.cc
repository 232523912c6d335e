#include "net/tcp.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hw/profiles.h"
#include "sim/process.h"

namespace wimpy::net {
namespace {

class TcpTest : public ::testing::Test {
 protected:
  TcpTest() : fabric_(&sched_) {
    client_node_ = std::make_unique<hw::ServerNode>(
        &sched_, hw::DellR620Profile(), 1);
    server_node_ = std::make_unique<hw::ServerNode>(
        &sched_, hw::DellR620Profile(), 2);
    fabric_.AddNode(client_node_.get(), "room");
    fabric_.AddNode(server_node_.get(), "room");
  }

  void MakeHosts(const TcpConfig& client_cfg, const TcpConfig& server_cfg) {
    client_ = std::make_unique<TcpHost>(&fabric_, 1, client_cfg);
    server_ = std::make_unique<TcpHost>(&fabric_, 2, server_cfg);
  }

  sim::Scheduler sched_;
  Fabric fabric_;
  std::unique_ptr<hw::ServerNode> client_node_, server_node_;
  std::unique_ptr<TcpHost> client_, server_;
};

sim::Process ConnectOnce(TcpHost& client, TcpHost& server,
                         ConnectResult* out, bool keep_open = false) {
  TcpConnection conn(&client, &server);
  *out = co_await conn.Connect();
  if (!keep_open) conn.Close();
}

TEST_F(TcpTest, HandshakeTakesOneRtt) {
  MakeHosts(TcpConfig{}, TcpConfig{});
  ConnectResult result;
  sim::Spawn(sched_, ConnectOnce(*client_, *server_, &result));
  sched_.Run();
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.retries, 0);
  EXPECT_NEAR(result.connect_delay, fabric_.Rtt(1, 2), 1e-9);
}

TEST_F(TcpTest, PortExhaustionFailsFast) {
  TcpConfig tiny;
  tiny.ephemeral_ports = 0;
  MakeHosts(tiny, TcpConfig{});
  ConnectResult result;
  sim::Spawn(sched_, ConnectOnce(*client_, *server_, &result));
  sched_.Run();
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
}

TEST_F(TcpTest, BacklogOverflowTriggersExponentialBackoff) {
  TcpConfig server_cfg;
  server_cfg.listen_backlog = 0;  // every SYN is dropped
  MakeHosts(TcpConfig{}, server_cfg);
  ConnectResult result;
  sim::Spawn(sched_, ConnectOnce(*client_, *server_, &result));
  sched_.Run();
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.retries, 3);
  // Waited 1 + 2 + 4 = 7 s before giving up.
  EXPECT_NEAR(result.connect_delay, 7.0, 1e-6);
  EXPECT_EQ(server_->syn_drops(), 4);
}

TEST_F(TcpTest, ConnectDelaySpikesMatchBackoffSchedule) {
  // With a single-SYN drop then success, the connect delay is ~1 s + RTT;
  // with two drops ~3 s + RTT — the histogram spikes of Figure 11.
  TcpConfig server_cfg;
  server_cfg.listen_backlog = 1;
  MakeHosts(TcpConfig{}, server_cfg);
  // Occupy the single backlog slot until t = 0.5 s, so the SYN at t=0 is
  // dropped and the retransmission at t=1 succeeds.
  ASSERT_TRUE(server_->TryEnterBacklog());
  sched_.ScheduleAt(0.5, [&] { server_->LeaveBacklog(); });
  ConnectResult result;
  sim::Spawn(sched_, ConnectOnce(*client_, *server_, &result));
  sched_.Run();
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.retries, 1);
  EXPECT_NEAR(result.connect_delay, 1.0 + fabric_.Rtt(1, 2), 1e-6);
}

TEST_F(TcpTest, ConnectionSlotsReleaseOnClose) {
  MakeHosts(TcpConfig{}, TcpConfig{});
  ConnectResult r1, r2;
  sim::Spawn(sched_, ConnectOnce(*client_, *server_, &r1));
  sched_.Run();
  EXPECT_EQ(server_->connections_open(), 0);
  EXPECT_EQ(client_->ports_in_use(), 0);
  sim::Spawn(sched_, ConnectOnce(*client_, *server_, &r2));
  sched_.Run();
  EXPECT_TRUE(r2.status.ok());
}

TEST_F(TcpTest, ConnectionSlotExhaustionResets) {
  TcpConfig server_cfg;
  server_cfg.max_connections = 1;
  MakeHosts(TcpConfig{}, server_cfg);
  auto hold = [&](ConnectResult* out) -> sim::Process {
    TcpConnection conn(client_.get(), server_.get());
    *out = co_await conn.Connect();
    co_await sim::Delay(sched_, 100.0);  // hold the slot
  };
  ConnectResult r1, r2;
  sim::Spawn(sched_, hold(&r1));
  sim::Spawn(sched_, ConnectOnce(*client_, *server_, &r2));
  sched_.Run();
  EXPECT_TRUE(r1.status.ok());
  EXPECT_EQ(r2.status.code(), StatusCode::kResourceExhausted);
}

sim::Process ExchangeOnce(TcpHost& client, TcpHost& server, Bytes up,
                          Bytes down, sim::Scheduler& sched,
                          double* done_at) {
  TcpConnection conn(&client, &server);
  ConnectResult r = co_await conn.Connect();
  EXPECT_TRUE(r.status.ok());
  if (r.status.ok()) {
    co_await conn.Exchange(up, down);
    conn.Close();
    *done_at = sched.now();
  }
}

TEST_F(TcpTest, ExchangeMovesBytesBothWays) {
  MakeHosts(TcpConfig{}, TcpConfig{});
  double done_at = -1;
  sim::Spawn(sched_, ExchangeOnce(*client_, *server_, KB(1), MB(125),
                                  sched_, &done_at));
  sched_.Run();
  // Response dominates: 125 MB at 1 Gbps ~ 1 s.
  EXPECT_NEAR(done_at, 1.0, 0.01);
  EXPECT_EQ(client_node_->nic().bytes_received(), MB(125));
}

// TIME_WAIT expiry: every close arms the same fixed delay, so TcpHost
// keeps a FIFO of due times and one engine event for its front.

TEST_F(TcpTest, TimeWaitSlotsFreeInCloseOrderAtClosePlusTimeWait) {
  TcpConfig server_cfg;
  server_cfg.time_wait = Seconds(5);
  MakeHosts(TcpConfig{}, server_cfg);
  ASSERT_TRUE(server_->TryOpenConnectionSlot());
  ASSERT_TRUE(server_->TryOpenConnectionSlot());
  const std::size_t before = sched_.pending_events();

  server_->CloseConnectionSlot();  // t = 0, frees at 5
  sched_.Run(2.0);
  server_->CloseConnectionSlot();  // t = 2, frees at 7
  // The second close rides the event already armed for the first.
  EXPECT_EQ(sched_.pending_events(), before + 1);
  sched_.Run(4.5);
  EXPECT_EQ(server_->connections_open(), 2);
  sched_.Run(6.0);
  EXPECT_EQ(server_->connections_open(), 1);
  // One re-arm for the later due time, then nothing is left pending.
  EXPECT_EQ(sched_.pending_events(), before + 1);
  sched_.Run();
  EXPECT_EQ(server_->connections_open(), 0);
  EXPECT_EQ(sched_.now(), 7.0);
  EXPECT_EQ(sched_.pending_events(), before);
}

TEST_F(TcpTest, EqualDueTimeWaitExpiriesDrainInOneEngineEvent) {
  TcpConfig server_cfg;
  server_cfg.time_wait = Seconds(5);
  MakeHosts(TcpConfig{}, server_cfg);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(server_->TryOpenConnectionSlot());
  for (int i = 0; i < 50; ++i) server_->CloseConnectionSlot();
  EXPECT_EQ(server_->connections_open(), 50);

  const std::size_t executed = sched_.executed_events();
  sched_.Run();
  // 50 sockets due at the same instant cost a single engine event.
  EXPECT_EQ(sched_.executed_events() - executed, 1u);
  EXPECT_EQ(server_->connections_open(), 0);
  EXPECT_EQ(sched_.now(), 5.0);
}

TEST_F(TcpTest, TimeWaitKeepsAtMostOnePendingEventPerHost) {
  // Sustained churn: a close every step and a millisecond of simulated
  // time every other step, so pairs of closes share a due time and the
  // drains (from t = 2 s on) interleave with new closes.
  TcpConfig server_cfg;
  server_cfg.max_connections = 1 << 20;
  server_cfg.time_wait = Seconds(2);  // seconds: rides the overflow heap
  MakeHosts(TcpConfig{}, server_cfg);
  const std::size_t before = sched_.pending_events();
  const std::size_t executed = sched_.executed_events();
  for (int step = 0; step < 5000; ++step) {
    ASSERT_TRUE(server_->TryOpenConnectionSlot());
    server_->CloseConnectionSlot();
    ASSERT_EQ(sched_.pending_events(), before + 1);
    if (step % 2 == 1) sched_.Run(sched_.now() + 1e-3);
  }
  sched_.Run();
  EXPECT_EQ(server_->connections_open(), 0);
  EXPECT_EQ(sched_.pending_events(), before);
  // One engine event per distinct due time (2500 of them), not per close.
  EXPECT_EQ(sched_.executed_events() - executed, 2500u);
}

TEST_F(TcpTest, DestroyingAHostCancelsItsTimeWaitEvent) {
  TcpConfig server_cfg;
  server_cfg.time_wait = Seconds(5);
  MakeHosts(TcpConfig{}, server_cfg);
  const std::size_t before = sched_.pending_events();
  ASSERT_TRUE(server_->TryOpenConnectionSlot());
  server_->CloseConnectionSlot();
  EXPECT_EQ(sched_.pending_events(), before + 1);
  server_.reset();
  EXPECT_EQ(sched_.pending_events(), before);
  sched_.Run();  // nothing fires into the destroyed host
}

}  // namespace
}  // namespace wimpy::net
