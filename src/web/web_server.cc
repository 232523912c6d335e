#include "web/web_server.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "obs/energy.h"
#include "obs/tracer.h"

namespace wimpy::web {

namespace {
constexpr Bytes kErrorReplyBytes = 320;  // terse 500 page
// PHP request execution, million instructions (before efficiency).
// Calibrated so the full 24-Edison tier peaks at ~7.3k req/s — above the
// tuned offered load at 1024 conn/s, below it at 2048, where the paper's
// server errors begin.
constexpr double kRequestBaseMinstr = 3.45;
// Reply assembly cost per KB of reply.
constexpr double kAssemblyMinstrPerKb = 0.05;

// Always-on, like shard::Ring's checks: a ring that does not map onto
// `caches` would index past the vector in every build type.
void CheckCacheRing(const shard::Ring& ring, std::size_t caches) {
  const std::vector<int>& members = ring.members();  // sorted, unique
  if (members.size() == caches &&
      (members.empty() || members.back() == static_cast<int>(caches) - 1)) {
    return;
  }
  std::fprintf(stderr,
               "web::WebServer: cache ring members must be 0..caches-1 "
               "for %zu caches (ring has %zu members)\n",
               caches, members.size());
  std::abort();
}
}  // namespace

WebServer::WebServer(hw::ServerNode* node, net::Fabric* fabric,
                     std::vector<CacheServer*> caches,
                     const shard::Ring& cache_ring,
                     std::vector<DatabaseServer*> databases,
                     const WebServerConfig& config, std::uint64_t seed)
    : node_(node),
      fabric_(fabric),
      caches_(std::move(caches)),
      cache_ring_(cache_ring),
      databases_(std::move(databases)),
      config_(config),
      tcp_host_(fabric, node->id(), config.tcp),
      php_workers_(&node->scheduler(), config.php_workers),
      accept_serial_(&node->scheduler(), 1),
      rng_(seed) {
  assert(config.service_efficiency > 0);
  CheckCacheRing(cache_ring_, caches_.size());
}

void WebServer::ResetStats() {
  calls_ok_ = 0;
  errors_500_ = 0;
  total_delay_ = OnlineStats();
  cache_delay_ = OnlineStats();
  db_delay_ = OnlineStats();
}

sim::Task<void> WebServer::AcceptWork() {
  // One accept thread: connection setups serialise here, and the CPU work
  // itself contends with PHP execution on the shared cores. The backlog
  // slot taken at SYN time (Connect with hold_backlog) is released only
  // when this accept completes — so the SYN queue drains at the accept
  // rate and overflows under connection floods, producing the Figure 11
  // retransmission spikes.
  {
    sim::SemaphoreGuard guard(accept_serial_);
    co_await guard.Acquired();
    co_await node_->cpu().Execute(Derated(config_.accept_minstr));
  }
  tcp_host_.LeaveBacklog();
}

sim::Task<WebServer::ReplyOp> WebServer::Serve(
    int client_node_id, const RequestSpec& spec,
    const obs::TraceHandle& parent) {
  // Upstream request bytes.
  co_await fabric_->Transfer(client_node_id, node_->id(), 200, parent,
                             "req_xfer");
  const SimTime started = node_->scheduler().now();

  // The serve span brackets exactly the interval `result.total` measures
  // (`started` to the ReplyOp's resume), so Table 7's total delay is
  // re-derivable from the trace alone; likewise the cache/db child spans
  // (FetchFromCache/FetchFromDb) bracket exactly the recorded fetch delays.
  obs::CausalSpan serve(parent, "serve", obs::Category::kRequest,
                        node_->id());
  obs::ScopedResidency serve_res(energy_, node_->id(), serve.handle(),
                                 "serve");
  CallResult result;
  // Overload check: lighttpd+FastCGI answers 500 when the backend queue is
  // hopeless rather than queueing forever.
  const std::size_t queue_limit =
      static_cast<std::size_t>(config_.php_workers) *
      static_cast<std::size_t>(config_.queue_factor);
  if (php_workers_.queue_length() >= queue_limit) {
    ++errors_500_;
    serve.Instant("http_500");
    co_await node_->cpu().Execute(Derated(0.05));
    result.reply_bytes = kErrorReplyBytes;
  } else {
    sim::SemaphoreGuard worker(php_workers_);
    co_await worker.Acquired();

    // PHP request parsing + script execution.
    co_await node_->cpu().Execute(Derated(kRequestBaseMinstr));

    // Content fetch: cache tier on a hit, database tier on a miss.
    if (spec.cache_hit && !caches_.empty()) {
      result.cache_delay =
          co_await FetchFromCache(spec.reply_bytes, serve.handle());
      cache_delay_.Add(result.cache_delay);
    } else if (!databases_.empty()) {
      result.db_delay =
          co_await FetchFromDb(spec.reply_bytes, serve.handle());
      db_delay_.Add(result.db_delay);
    }

    // Reply assembly scales with the content size.
    const double kb = static_cast<double>(spec.reply_bytes) / 1000.0;
    co_await node_->cpu().Execute(Derated(kAssemblyMinstrPerKb * kb));
    result.ok = true;
    result.reply_bytes = spec.reply_bytes;
    // The worker is free once the content is handed to the event loop,
    // as this block ends: before the reply goes on the wire.
  }
  co_return ReplyOp(this, client_node_id, started, result, std::move(serve),
                    std::move(serve_res));
}

WebServer::ReplyOp::ReplyOp(WebServer* server, int client_node_id,
                            SimTime started, const CallResult& result,
                            obs::CausalSpan serve,
                            obs::ScopedResidency serve_res)
    : server_(server),
      serve_(std::move(serve)),
      serve_res_(std::move(serve_res)),
      started_(started),
      result_(result),
      transfer_(server->fabric_->Transfer(server->node_->id(), client_node_id,
                                          result.reply_bytes,
                                          serve_.handle(), "reply_xfer")) {}

CallResult WebServer::ReplyOp::await_resume() {
  transfer_.await_resume();  // ends the reply_xfer span
  result_.total = server_->node_->scheduler().now() - started_;
  if (result_.ok) {
    ++server_->calls_ok_;
    server_->total_delay_.Add(result_.total);
  }
  serve_res_ = obs::ScopedResidency();
  serve_ = obs::CausalSpan();
  return result_;
}

// The fetch spans live in these sub-task frames, only as long as the
// fetch itself, and bracket exactly the delay each one returns.
sim::Task<Duration> WebServer::FetchFromCache(Bytes reply_bytes,
                                              const obs::TraceHandle& serve) {
  // The request's key hash picks the shard; its primary owner is the
  // cache holding the entry.
  CacheServer* cache = caches_[static_cast<std::size_t>(
      cache_ring_.PrimaryOf(cache_ring_.ShardOf(rng_.Next())))];
  const SimTime t0 = node_->scheduler().now();
  obs::CausalSpan fetch(serve, "cache", obs::Category::kRequest,
                        cache->node().id());
  obs::ScopedResidency fetch_res(energy_, cache->node().id(), fetch.handle(),
                                 "cache");
  co_await cache->Get(node_->id(), reply_bytes);
  co_return node_->scheduler().now() - t0;
}

sim::Task<Duration> WebServer::FetchFromDb(Bytes reply_bytes,
                                           const obs::TraceHandle& serve) {
  DatabaseServer* db = databases_[rng_.NextBelow(databases_.size())];
  const SimTime t0 = node_->scheduler().now();
  obs::CausalSpan fetch(serve, "db", obs::Category::kRequest,
                        db->node().id());
  obs::ScopedResidency fetch_res(energy_, db->node().id(), fetch.handle(),
                                 "db");
  co_await db->Query(node_->id(), reply_bytes);
  co_return node_->scheduler().now() - t0;
}

}  // namespace wimpy::web
