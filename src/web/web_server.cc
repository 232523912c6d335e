#include "web/web_server.h"

#include <cassert>

#include "obs/energy.h"
#include "obs/tracer.h"

namespace wimpy::web {

namespace {
constexpr Bytes kErrorReplyBytes = 320;  // terse 500 page
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
  assert(cache_ring_.node_count() == static_cast<int>(caches_.size()));
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

sim::Task<CallResult> WebServer::ServeCall(int client_node_id,
                                           const RequestSpec& spec,
                                           const obs::TraceHandle& parent) {
  CallResult result;
  sim::Scheduler& sched = node_->scheduler();

  // Upstream request bytes.
  co_await fabric_->Transfer(client_node_id, node_->id(), 200, parent,
                             "req_xfer");
  const SimTime started = sched.now();

  // The serve span brackets exactly the interval `result.total` measures
  // (`started` to the co_return), so Table 7's total delay is
  // re-derivable from the trace alone; likewise the cache/db child spans
  // below bracket exactly the recorded fetch delays.
  obs::CausalSpan serve(parent, "serve", obs::Category::kRequest,
                        node_->id());
  obs::ScopedResidency serve_res(energy_, node_->id(), serve.handle(),
                                 "serve");

  // Overload check: lighttpd+FastCGI answers 500 when the backend queue is
  // hopeless rather than queueing forever.
  const std::size_t queue_limit =
      static_cast<std::size_t>(config_.php_workers) *
      static_cast<std::size_t>(config_.queue_factor);
  if (php_workers_.queue_length() >= queue_limit) {
    ++errors_500_;
    serve.Instant("http_500");
    co_await node_->cpu().Execute(Derated(0.05));
    co_await fabric_->Transfer(node_->id(), client_node_id, kErrorReplyBytes,
                               serve.handle(), "reply_xfer");
    result.ok = false;
    result.total = sched.now() - started;
    result.reply_bytes = kErrorReplyBytes;
    co_return result;
  }

  {
    sim::SemaphoreGuard worker(php_workers_);
    co_await worker.Acquired();

    // PHP request parsing + script execution.
    co_await node_->cpu().Execute(Derated(config_.request_base_minstr));

    // Content fetch: cache tier on a hit, database tier on a miss.
    if (spec.cache_hit && !caches_.empty()) {
      // The request's key hash picks the shard; its primary owner is the
      // cache holding the entry.
      CacheServer* cache = caches_[static_cast<std::size_t>(
          cache_ring_.PrimaryOf(cache_ring_.ShardOf(rng_.Next())))];
      const SimTime t0 = sched.now();
      {
        obs::CausalSpan fetch(serve.handle(), "cache",
                              obs::Category::kRequest, cache->node().id());
        obs::ScopedResidency fetch_res(energy_, cache->node().id(),
                                       fetch.handle(), "cache");
        co_await cache->Get(node_->id(), spec.reply_bytes);
      }
      result.cache_delay = sched.now() - t0;
      cache_delay_.Add(result.cache_delay);
    } else if (!databases_.empty()) {
      DatabaseServer* db =
          databases_[rng_.NextBelow(databases_.size())];
      const SimTime t0 = sched.now();
      {
        obs::CausalSpan fetch(serve.handle(), "db", obs::Category::kRequest,
                              db->node().id());
        obs::ScopedResidency fetch_res(energy_, db->node().id(),
                                       fetch.handle(), "db");
        co_await db->Query(node_->id(), spec.reply_bytes);
      }
      result.db_delay = sched.now() - t0;
      db_delay_.Add(result.db_delay);
    }

    // Reply assembly scales with the content size.
    const double kb = static_cast<double>(spec.reply_bytes) / 1000.0;
    co_await node_->cpu().Execute(
        Derated(config_.assembly_minstr_per_kb * kb));
    // The worker is free once the content is handed to the event loop.
  }

  co_await fabric_->Transfer(node_->id(), client_node_id, spec.reply_bytes,
                             serve.handle(), "reply_xfer");

  ++calls_ok_;
  result.ok = true;
  result.total = sched.now() - started;
  result.reply_bytes = spec.reply_bytes;
  total_delay_.Add(result.total);
  co_return result;
}

}  // namespace wimpy::web
