// Unit tests for the web-server model itself (below the experiment
// harness): worker-pool overload, accept serialisation, reply-size
// dependent costs, and stats bookkeeping.
#include "web/web_server.h"

#include <gtest/gtest.h>

#include <memory>

#include "hw/profiles.h"
#include "shard/ring.h"
#include "sim/process.h"
#include "web/backend.h"
#include "web/service.h"

namespace wimpy::web {
namespace {

class WebServerUnitTest : public ::testing::Test {
 protected:
  WebServerUnitTest() : fabric_(&sched_) {
    web_node_ = std::make_unique<hw::ServerNode>(
        &sched_, hw::EdisonProfile(), 0);
    cache_node_ = std::make_unique<hw::ServerNode>(
        &sched_, hw::EdisonProfile(), 1);
    db_node_ = std::make_unique<hw::ServerNode>(
        &sched_, hw::DellR620Profile(), 2);
    client_node_ = std::make_unique<hw::ServerNode>(
        &sched_, hw::DellR620Profile(), 3);
    fabric_.AddNode(web_node_.get(), "edison-room");
    fabric_.AddNode(cache_node_.get(), "edison-room");
    fabric_.AddNode(db_node_.get(), "dell-room");
    fabric_.AddNode(client_node_.get(), "client-room");
    fabric_.SetGroupLink("edison-room", "dell-room", Gbps(1),
                         Milliseconds(0.02));
    fabric_.SetGroupLink("client-room", "edison-room", Gbps(1),
                         Milliseconds(0.05));
    cache_ = std::make_unique<CacheServer>(cache_node_.get(), &fabric_,
                                           BackendCosts{});
    db_ = std::make_unique<DatabaseServer>(db_node_.get(), &fabric_,
                                           BackendCosts{}, 7);
  }

  std::unique_ptr<WebServer> MakeServer(WebServerConfig config) {
    return std::make_unique<WebServer>(
        web_node_.get(), &fabric_, std::vector<CacheServer*>{cache_.get()},
        cache_ring_, std::vector<DatabaseServer*>{db_.get()}, config, 11);
  }

  static RequestSpec CacheHit(Bytes reply) {
    return RequestSpec{false, reply, true};
  }
  static RequestSpec CacheMiss(Bytes reply) {
    return RequestSpec{false, reply, false};
  }

  sim::Scheduler sched_;
  net::Fabric fabric_;
  std::unique_ptr<hw::ServerNode> web_node_, cache_node_, db_node_,
      client_node_;
  std::unique_ptr<CacheServer> cache_;
  std::unique_ptr<DatabaseServer> db_;
  // The one-cache tier's ring (member 0 is `cache_`).
  const shard::Ring cache_ring_{shard::RingConfig{}, {0}};
};

sim::Process CallOnce(WebServer& web, RequestSpec spec, CallResult* out) {
  *out = co_await web.ServeCall(3, spec);
}

TEST_F(WebServerUnitTest, CacheHitAvoidsDatabase) {
  auto web = MakeServer(EdisonWebConfig());
  CallResult result;
  sim::Spawn(sched_, CallOnce(*web, CacheHit(KB(1.5)), &result));
  sched_.Run();
  EXPECT_TRUE(result.ok);
  EXPECT_GT(result.cache_delay, 0);
  EXPECT_EQ(result.db_delay, 0);
  EXPECT_EQ(cache_->hits_served(), 1);
  EXPECT_EQ(db_->queries_served(), 0);
  EXPECT_EQ(web->calls_ok(), 1);
}

TEST_F(WebServerUnitTest, CacheMissHitsDatabase) {
  auto web = MakeServer(EdisonWebConfig());
  CallResult result;
  sim::Spawn(sched_, CallOnce(*web, CacheMiss(KB(1.5)), &result));
  sched_.Run();
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.cache_delay, 0);
  EXPECT_GT(result.db_delay, Milliseconds(0.5));
  EXPECT_EQ(db_->queries_served(), 1);
}

TEST_F(WebServerUnitTest, BiggerRepliesTakeLonger) {
  auto web = MakeServer(EdisonWebConfig());
  CallResult small, large;
  sim::Spawn(sched_, CallOnce(*web, CacheHit(KB(1.5)), &small));
  sched_.Run();
  sim::Spawn(sched_, CallOnce(*web, CacheHit(KB(44)), &large));
  sched_.Run();
  EXPECT_GT(large.total, small.total * 1.5);
}

TEST_F(WebServerUnitTest, QueueOverflowReturns500) {
  WebServerConfig config = EdisonWebConfig();
  config.php_workers = 1;
  config.queue_factor = 2;  // queue limit = 2
  auto web = MakeServer(config);
  std::vector<CallResult> results(12);
  for (auto& r : results) {
    sim::Spawn(sched_, CallOnce(*web, CacheHit(KB(1.5)), &r));
  }
  sched_.Run();
  int ok = 0, errors = 0;
  for (const auto& r : results) {
    (r.ok ? ok : errors)++;
  }
  EXPECT_GT(errors, 0);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(web->errors_500(), errors);
  EXPECT_EQ(web->calls_ok(), ok);
  // 500s come back much faster than served calls under this pile-up.
  Duration err_delay = 1e9, ok_delay = 0;
  for (const auto& r : results) {
    if (r.ok) {
      ok_delay = std::max(ok_delay, r.total);
    } else {
      err_delay = std::min(err_delay, r.total);
    }
  }
  EXPECT_LT(err_delay, ok_delay);
}

TEST_F(WebServerUnitTest, StatsResetClearsWindows) {
  auto web = MakeServer(EdisonWebConfig());
  CallResult result;
  sim::Spawn(sched_, CallOnce(*web, CacheHit(KB(1.5)), &result));
  sched_.Run();
  EXPECT_EQ(web->total_delay_stats().count(), 1u);
  web->ResetStats();
  EXPECT_EQ(web->calls_ok(), 0);
  EXPECT_EQ(web->total_delay_stats().count(), 0u);
  EXPECT_EQ(web->cache_delay_stats().count(), 0u);
}

sim::Process AcceptOnce(WebServer& web, sim::Scheduler& sched,
                        double* done_at) {
  web.tcp_host().TryEnterBacklog();
  co_await web.AcceptWork();
  *done_at = sched.now();
}

TEST_F(WebServerUnitTest, AcceptLoopSerialises) {
  auto web = MakeServer(EdisonWebConfig());
  std::vector<double> done(4, -1);
  for (auto& d : done) {
    sim::Spawn(sched_, AcceptOnce(*web, sched_, &d));
  }
  sched_.Run();
  std::sort(done.begin(), done.end());
  // Each accept adds roughly the same serial CPU slice.
  const double step0 = done[1] - done[0];
  const double step1 = done[2] - done[1];
  EXPECT_GT(step0, 0);
  EXPECT_NEAR(step1, step0, step0 * 0.5);
  EXPECT_EQ(web->tcp_host().backlog_depth(), 0);  // all released
}

TEST_F(WebServerUnitTest, FailedFlagIsSticky) {
  auto web = MakeServer(EdisonWebConfig());
  EXPECT_FALSE(web->failed());
  web->set_failed(true);
  EXPECT_TRUE(web->failed());
  web->set_failed(false);
  EXPECT_FALSE(web->failed());
}

}  // namespace
}  // namespace wimpy::web
