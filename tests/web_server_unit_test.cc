// Unit tests for the web-server model itself (below the experiment
// harness): worker-pool overload, accept serialisation, reply-size
// dependent costs, and stats bookkeeping.
#include "web/web_server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "hw/profiles.h"
#include "net/topology.h"
#include "obs/tracer.h"
#include "shard/ring.h"
#include "sim/process.h"
#include "web/backend.h"
#include "web/service.h"

namespace wimpy::web {
namespace {

class WebServerUnitTest : public ::testing::Test {
 protected:
  // The Edison room with the Dell and client rooms attached, and no
  // client↔Dell link (no call crosses it).
  WebServerUnitTest()
      : fabric_(&sched_),
        rooms_(&fabric_, {.racks = 1, .rack_name = "edison-room"}) {
    rooms_.AttachToCore("dell-room", net::kEdisonDellLink);
    rooms_.AttachToCore("client-room", net::kClientEdisonLink);
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
    cache_ = std::make_unique<CacheServer>(cache_node_.get(), &fabric_);
    db_ = std::make_unique<DatabaseServer>(db_node_.get(), &fabric_, 7);
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
  net::HierarchicalTopology rooms_;
  std::unique_ptr<hw::ServerNode> web_node_, cache_node_, db_node_,
      client_node_;
  std::unique_ptr<CacheServer> cache_;
  std::unique_ptr<DatabaseServer> db_;
  // The one-cache tier's ring (member 0 is `cache_`).
  const shard::Ring cache_ring_{shard::RingConfig{}, {0}};
};

sim::Process CallOnce(WebServer& web, RequestSpec spec, CallResult* out) {
  WebServer::ReplyOp reply = co_await web.Serve(3, spec);
  *out = co_await reply;
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

sim::Process TracedCallOnce(WebServer& web, RequestSpec spec,
                            obs::TraceHandle parent, CallResult* out) {
  WebServer::ReplyOp reply = co_await web.Serve(3, spec, parent);
  *out = co_await reply;
}

TEST_F(WebServerUnitTest, TotalIsTheServeSpansDuration) {
  auto web = MakeServer(EdisonWebConfig());
  obs::Tracer tracer;
  obs::TraceHandle root;
  root.tracer = &tracer;
  root.sched = &sched_;
  root.ctx.trace_id = tracer.NewTraceId();
  CallResult hit, miss;
  sim::Spawn(sched_, TracedCallOnce(*web, CacheHit(KB(1.5)), root, &hit));
  sim::Spawn(sched_, TracedCallOnce(*web, CacheMiss(KB(44)), root, &miss));
  sched_.Run();
  ASSERT_TRUE(hit.ok);
  ASSERT_TRUE(miss.ok);
  std::vector<Duration> serve_spans;
  std::vector<SimTime> begins;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (std::string_view(e.name) != "serve") continue;
    if (e.phase == 'B') {
      begins.push_back(e.time);
    } else {
      ASSERT_EQ(e.phase, 'E');
      serve_spans.push_back(e.time - begins.at(serve_spans.size()));
    }
  }
  // The hit's smaller reply finishes first; both totals are exact.
  EXPECT_EQ(serve_spans, (std::vector<Duration>{hit.total, miss.total}));
  EXPECT_EQ(web->calls_ok(), 2);
  EXPECT_EQ(web->total_delay_stats().count(), 2u);
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

using WebServerUnitDeathTest = WebServerUnitTest;

TEST_F(WebServerUnitDeathTest, MismatchedCacheRingAborts) {
  // The ring indexes `caches` on every cache hit, so a ring that does not
  // map onto it aborts at construction in every build type.
  const std::vector<CacheServer*> one_cache{cache_.get()};
  const std::vector<DatabaseServer*> dbs{db_.get()};
  const shard::Ring two_members(shard::RingConfig{}, {0, 1});
  EXPECT_DEATH(WebServer(web_node_.get(), &fabric_, one_cache, two_members,
                         dbs, EdisonWebConfig(), 11),
               "for 1 caches \\(ring has 2 members\\)");
  const shard::Ring out_of_range(shard::RingConfig{}, {1});
  EXPECT_DEATH(WebServer(web_node_.get(), &fabric_, one_cache, out_of_range,
                         dbs, EdisonWebConfig(), 11),
               "ring has 1 members");
  const shard::Ring empty(shard::RingConfig{}, {});
  EXPECT_DEATH(WebServer(web_node_.get(), &fabric_, one_cache, empty, dbs,
                         EdisonWebConfig(), 11),
               "ring has 0 members");
}

}  // namespace
}  // namespace wimpy::web
