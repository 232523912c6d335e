// Web-server model: Lighttpd + FastCGI PHP on one node (paper §5.1).
//
// Resources and mechanisms:
//   * a serial accept loop whose per-connection CPU work bounds connection
//     setup rate;
//   * a bounded FastCGI worker pool — when the pending queue exceeds its
//     limit the server answers 500 (the paper's overload signature);
//   * per-request PHP CPU work, cache/database fetch, reply assembly, and
//     the reply transfer over the shared fabric;
//   * a `service_efficiency` derating of the node's Dhrystone throughput
//     for this branchy interpreted workload. §4.1 shows the Xeon's
//     deep-pipeline advantage is Dhrystone-specific; on scale-out serving
//     the per-request instruction budget is far closer between the
//     platforms (the FAWN observation), which is what lets 24 Edisons
//     match 2 Dells at the measured 86%-vs-45% CPU utilisations.
#ifndef WIMPY_WEB_WEB_SERVER_H_
#define WIMPY_WEB_WEB_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "hw/server_node.h"
#include "net/tcp.h"
#include "obs/context.h"
#include "shard/ring.h"
#include "sim/semaphore.h"
#include "sim/task.h"
#include "web/backend.h"
#include "web/workload.h"

namespace wimpy::obs {
class EnergyAttributor;
}  // namespace wimpy::obs

namespace wimpy::web {

struct WebServerConfig {
  // FastCGI worker processes.
  int php_workers = 8;
  // Pending requests beyond workers*queue_factor are answered 500.
  int queue_factor = 16;
  // PHP request execution, million instructions (before efficiency).
  // Calibrated so the full 24-Edison tier peaks at ~7.3k req/s — above
  // the tuned offered load at 1024 conn/s, below it at 2048, where the
  // paper's server errors begin.
  double request_base_minstr = 3.45;
  // Reply assembly cost per KB of reply.
  double assembly_minstr_per_kb = 0.05;
  // Serial accept-loop work per new connection.
  double accept_minstr = 0.40;
  // Fraction of the node's Dhrystone rate achieved on this workload.
  double service_efficiency = 1.0;
  net::TcpConfig tcp;
};

// Outcome of one HTTP call, with the timing decomposition of Table 7.
struct CallResult {
  bool ok = false;          // false -> HTTP 500
  Duration total = 0;       // request arrival to reply sent
  Duration cache_delay = 0; // time fetching from memcached
  Duration db_delay = 0;    // time fetching from MySQL
  Bytes reply_bytes = 0;
};

class WebServer {
 public:
  // `cache_ring` maps request keys to indices into `caches`; its members
  // must be exactly 0..caches.size()-1. It is borrowed, not copied: one
  // ring is shared by every web server of a tier and must outlive them.
  WebServer(hw::ServerNode* node, net::Fabric* fabric,
            std::vector<CacheServer*> caches, const shard::Ring& cache_ring,
            std::vector<DatabaseServer*> databases,
            const WebServerConfig& config, std::uint64_t seed);

  WebServer(const WebServer&) = delete;
  WebServer& operator=(const WebServer&) = delete;

  // TCP endpoint clients connect to.
  net::TcpHost& tcp_host() { return tcp_host_; }
  hw::ServerNode& node() { return *node_; }

  // Fault injection: a failed server refuses new work; the balancer stops
  // routing to it (paper §1 advantage 2 — losing 1 of 24 micro servers
  // redistributes 4% of load, losing 1 of 2 brawny servers redistributes
  // 100%).
  void set_failed(bool failed) { failed_ = failed; }
  bool failed() const { return failed_; }

  // Serial accept-loop work; the load generator awaits this right after a
  // successful handshake.
  sim::Task<void> AcceptWork();

  // Serves one HTTP call for a client at `client_node_id`. With a
  // non-null `parent` handle the call is traced causally: "req_xfer" /
  // "reply_xfer" net spans, a "serve" span (arg = this node's id)
  // covering exactly the Table 7 `total` delay, nested "cache"/"db"
  // fetch spans covering exactly the recorded fetch delays, and an
  // "http_500" instant on the overload path. When an energy attributor
  // is installed (set_energy), the serve/cache/db spans are also
  // resident on their node for joule attribution.
  sim::Task<CallResult> ServeCall(int client_node_id, const RequestSpec& spec,
                                  const obs::TraceHandle& parent = {});

  // Attaches span-energy attribution (may be null; must already observe
  // the relevant nodes — see hw::ServerNode::ObserveEnergy).
  void set_energy(obs::EnergyAttributor* energy) { energy_ = energy; }

  // --- statistics (reset per measurement window via Snapshot) -------------
  std::int64_t calls_ok() const { return calls_ok_; }
  std::int64_t errors_500() const { return errors_500_; }
  const OnlineStats& total_delay_stats() const { return total_delay_; }
  const OnlineStats& cache_delay_stats() const { return cache_delay_; }
  const OnlineStats& db_delay_stats() const { return db_delay_; }
  void ResetStats();

 private:
  double Derated(double minstr) const {
    return minstr / config_.service_efficiency;
  }

  hw::ServerNode* node_;
  net::Fabric* fabric_;
  std::vector<CacheServer*> caches_;
  // Ketama map over cache indices: hot keys pin to a cache the way a
  // memcached client's consistent hashing does, instead of the old
  // uniform per-request draw (same shard map the kv/shard tiers use).
  const shard::Ring& cache_ring_;
  std::vector<DatabaseServer*> databases_;
  WebServerConfig config_;
  obs::EnergyAttributor* energy_ = nullptr;
  bool failed_ = false;
  net::TcpHost tcp_host_;
  sim::Semaphore php_workers_;
  sim::Semaphore accept_serial_;
  Rng rng_;

  std::int64_t calls_ok_ = 0;
  std::int64_t errors_500_ = 0;
  OnlineStats total_delay_;
  OnlineStats cache_delay_;
  OnlineStats db_delay_;
};

}  // namespace wimpy::web

#endif  // WIMPY_WEB_WEB_SERVER_H_
