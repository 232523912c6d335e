// FAWN-style key-value store workload (related work [21], [50]).
//
// FAWN demonstrated that wimpy nodes with fast flash beat brawny servers
// on *queries per joule* for key-value serving. This module reproduces
// that experiment class on the library's hardware models: a
// hash-partitioned store whose gets hit an in-memory index + cache with a
// configurable ratio and otherwise pay one random flash/disk read, and
// whose puts append to a log (sequential, buffered) — the FAWN-DS design.
#ifndef WIMPY_KV_STORE_H_
#define WIMPY_KV_STORE_H_

#include <cstdint>

#include "common/random.h"
#include "hw/server_node.h"
#include "net/fabric.h"
#include "obs/context.h"
#include "sim/task.h"

namespace wimpy::kv {

struct KvConfig {
  // Fraction of gets served from the RAM cache (FAWN's index always
  // resides in RAM; small stores cache hot values too).
  double ram_hit_ratio = 0.70;
};

// One storage node.
class KvNode {
 public:
  KvNode(hw::ServerNode* node, net::Fabric* fabric, const KvConfig& config,
         std::uint64_t seed);

  KvNode(const KvNode&) = delete;
  KvNode& operator=(const KvNode&) = delete;

  // GET: request hop, CPU, RAM-cache hit or random device read, reply hop.
  // A live `trace` handle wraps the fabric hops in "req_hop"/"reply_hop"
  // net child spans (by value: the handle is copied into the coroutine
  // frame, so callers may pass temporaries). Null handle = untraced.
  sim::Task<void> Get(int client_node, Bytes value_bytes,
                      obs::TraceHandle trace = {});

  // PUT: value hop in, CPU, log append (sequential buffered write), ack.
  sim::Task<void> Put(int client_node, Bytes value_bytes,
                      obs::TraceHandle trace = {});

  // Chain-replication hop (FAWN-DS): receives the value from the
  // upstream store node ("repl_hop") and appends it locally.
  sim::Task<void> ApplyReplicatedWrite(int upstream_node, Bytes value_bytes,
                                       obs::TraceHandle trace = {});

  // Fault injection: a failed node serves nothing; the front-end routes
  // around it (FAWN's ring failover).
  void set_failed(bool failed) { failed_ = failed; }
  bool failed() const { return failed_; }

  hw::ServerNode& node() { return *node_; }
  std::int64_t gets() const { return gets_; }
  std::int64_t puts() const { return puts_; }

 private:
  hw::ServerNode* node_;
  net::Fabric* fabric_;
  KvConfig config_;
  Rng rng_;
  bool failed_ = false;
  std::int64_t gets_ = 0;
  std::int64_t puts_ = 0;
};

}  // namespace wimpy::kv

#endif  // WIMPY_KV_STORE_H_
