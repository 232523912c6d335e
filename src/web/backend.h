// Cache (memcached) and database (MySQL) tier models.
//
// Both are request processors living on a ServerNode: a lookup costs CPU on
// the owning node, moves the value through memory or storage, and ships the
// reply back over the fabric. Contention (CPU sharing, NIC sharing, disk
// queueing) emerges from the node's fair-share resources, which is what
// drives the cache-delay blow-up the paper records in Table 7.
#ifndef WIMPY_WEB_BACKEND_H_
#define WIMPY_WEB_BACKEND_H_

#include <cstdint>

#include "hw/server_node.h"
#include "net/fabric.h"
#include "sim/task.h"
#include "web/workload.h"

namespace wimpy::web {

// One memcached instance.
class CacheServer {
 public:
  CacheServer(hw::ServerNode* node, net::Fabric* fabric);

  // Serves a GET issued by `requester_node`: request hop, CPU, value copy
  // through the memory bus, reply hop carrying `reply_bytes`.
  sim::Task<void> Get(int requester_node, Bytes reply_bytes);

  // Reserves the steady-state cache footprint (call once at warm-up).
  void WarmUp();

  hw::ServerNode& node() { return *node_; }
  std::int64_t hits_served() const { return hits_served_; }

 private:
  hw::ServerNode* node_;
  net::Fabric* fabric_;
  bool warmed_ = false;
  std::int64_t hits_served_ = 0;
};

// One MySQL instance (in the paper always a Dell R620; both clusters share
// the same two database servers).
class DatabaseServer {
 public:
  DatabaseServer(hw::ServerNode* node, net::Fabric* fabric,
                 std::uint64_t seed);

  // Serves a query from `requester_node` returning `reply_bytes`.
  sim::Task<void> Query(int requester_node, Bytes reply_bytes);

  hw::ServerNode& node() { return *node_; }
  std::int64_t queries_served() const { return queries_served_; }

 private:
  hw::ServerNode* node_;
  net::Fabric* fabric_;
  Rng rng_;
  std::int64_t queries_served_ = 0;
};

}  // namespace wimpy::web

#endif  // WIMPY_WEB_BACKEND_H_
