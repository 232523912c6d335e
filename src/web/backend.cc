#include "web/backend.h"

namespace wimpy::web {

namespace {
// GET requests and query statements are small.
constexpr Bytes kRequestHopBytes = 120;
// memcached GET handling, million instructions: Edison cache CPU ~9-12%
// at peak (paper 9%).
constexpr double kCacheLookupMinstr = 0.30;
// MySQL query execution (parse/plan/row fetch), million instructions:
// the Table 7 database-delay column.
constexpr double kDbQueryMinstr = 3.0;
// Fraction of DB queries whose row is not in the buffer pool and pays a
// random storage read.
constexpr double kDbMissStorageFraction = 0.15;
// Steady-state memcached memory footprint as a fraction of node RAM
// (paper: 54% on Edison cache nodes, 40% on Dell).
constexpr double kCacheMemoryFraction = 0.5;
}  // namespace

CacheServer::CacheServer(hw::ServerNode* node, net::Fabric* fabric)
    : node_(node), fabric_(fabric) {}

void CacheServer::WarmUp() {
  if (warmed_) return;
  warmed_ = true;
  const Bytes footprint = static_cast<Bytes>(
      kCacheMemoryFraction *
      static_cast<double>(node_->memory().total()));
  // Reservation is best-effort: a full node simply caches less.
  node_->memory().TryReserve(footprint);
}

sim::Task<void> CacheServer::Get(int requester_node, Bytes reply_bytes) {
  ++hits_served_;
  co_await fabric_->Transfer(requester_node, node_->id(), kRequestHopBytes);
  co_await node_->cpu().Execute(kCacheLookupMinstr);
  co_await node_->memory().Transfer(reply_bytes);
  co_await fabric_->Transfer(node_->id(), requester_node, reply_bytes);
}

DatabaseServer::DatabaseServer(hw::ServerNode* node, net::Fabric* fabric,
                               std::uint64_t seed)
    : node_(node), fabric_(fabric), rng_(seed) {}

sim::Task<void> DatabaseServer::Query(int requester_node,
                                      Bytes reply_bytes) {
  ++queries_served_;
  co_await fabric_->Transfer(requester_node, node_->id(), kRequestHopBytes);
  co_await node_->cpu().Execute(kDbQueryMinstr);
  if (rng_.Bernoulli(kDbMissStorageFraction)) {
    co_await node_->storage().RandomRead(reply_bytes);
  } else {
    co_await node_->memory().Transfer(reply_bytes);
  }
  co_await fabric_->Transfer(node_->id(), requester_node, reply_bytes);
}

}  // namespace wimpy::web
