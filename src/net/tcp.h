// TCP connection model: handshake latency, ephemeral ports, accept
// backlog, and SYN-drop retry with exponential backoff.
//
// These are precisely the OS-level resources the paper identifies as the
// web-service bottleneck ("throughput is limited by the ability to create
// new TCP ports and new threads") and the mechanism behind the Dell
// cluster's 1 s / 3 s / 7 s delay-distribution spikes (dropped SYNs
// retransmitted after 1, 2, 4 seconds — Figure 11).
#ifndef WIMPY_NET_TCP_H_
#define WIMPY_NET_TCP_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/fabric.h"
#include "obs/context.h"
#include "sim/ring_buffer.h"
#include "sim/scheduler.h"
#include "sim/semaphore.h"
#include "sim/task.h"

namespace wimpy::obs {
class MetricsRegistry;
}  // namespace wimpy::obs

namespace wimpy::net {

struct TcpConfig {
  // Client-side ephemeral port pool (after the paper's expanded
  // ip_local_port_range tuning).
  int ephemeral_ports = 28232;
  // Simultaneous established connections a host sustains (fd limit after
  // the paper's raised descriptor limits).
  int max_connections = 4096;
  // Pending-connection (SYN/accept) queue depth.
  int listen_backlog = 512;
  // SYN retransmission schedule: base, then doubling (1 s, 2 s, 4 s...).
  Duration syn_retry_base = Seconds(1.0);
  int syn_max_retries = 3;
  // Closed sockets linger in TIME_WAIT, still occupying a connection slot.
  // High connection churn against a bounded fd pool is the Dell cluster's
  // web bottleneck in the paper; larger server counts dilute it.
  Duration time_wait = Seconds(0);
};

// Per-host TCP state. One per simulated server/client machine.
class TcpHost {
 public:
  TcpHost(Fabric* fabric, int node_id, const TcpConfig& config);
  ~TcpHost();

  TcpHost(const TcpHost&) = delete;
  TcpHost& operator=(const TcpHost&) = delete;

  int node_id() const { return node_id_; }
  Fabric& fabric() { return *fabric_; }
  const TcpConfig& config() const { return config_; }

  // Server-side admission: a SYN occupies one backlog slot until the
  // connection is accepted (established) or rejected.
  bool TryEnterBacklog();
  void LeaveBacklog();

  // Established-connection slots.
  bool TryOpenConnectionSlot();
  void CloseConnectionSlot();

  // Client-side ephemeral ports.
  bool TryAllocatePort();
  void ReleasePort();

  std::int64_t ports_in_use() const { return ports_in_use_; }
  std::int64_t connections_open() const { return connections_open_; }
  std::int64_t backlog_depth() const { return backlog_depth_; }
  std::int64_t syn_drops() const { return syn_drops_; }
  void CountSynDrop() { ++syn_drops_; }

  // Registers this host's connection-resource probes under
  // `<prefix>.ports|conns|backlog|syn_drops` (see docs/observability.md).
  void PublishMetrics(obs::MetricsRegistry* registry,
                      const std::string& prefix);

 private:
  void ArmTimeWaitHead();
  void OnTimeWaitExpiry();

  Fabric* fabric_;
  int node_id_;
  TcpConfig config_;
  std::int64_t ports_in_use_ = 0;
  std::int64_t connections_open_ = 0;
  std::int64_t backlog_depth_ = 0;
  std::int64_t syn_drops_ = 0;
  // Every TIME_WAIT expiry uses the same fixed delay, so expiry times are
  // non-decreasing in close order: a FIFO of due times (8 bytes per
  // socket) plus ONE engine event armed for its front replaces one engine
  // event per close, and equal-due expiries drain in that one event.
  sim::RingDeque<SimTime> time_wait_due_;
  sim::EventId time_wait_event_ = 0;  // 0 = none armed
};

// Outcome of a connection attempt, including how long the client spent in
// SYN backoff — the quantity Figures 10/11 histogram.
struct ConnectResult {
  Status status;
  Duration connect_delay = 0;
  int retries = 0;
};

// An established client->server connection.
class TcpConnection {
 public:
  // Creates an unconnected connection object; call Connect() next.
  TcpConnection(TcpHost* client, TcpHost* server);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Performs the handshake with SYN-drop retry. On success the connection
  // is established; on failure (port exhaustion, retries exhausted) the
  // status says why.
  //
  // With `hold_backlog` the accepted connection keeps its backlog slot
  // until the server's accept loop processes it and calls
  // server->LeaveBacklog() — the real dynamics of an accept queue that
  // drains at the server's accept rate rather than at wire speed. Server
  // models (web::WebServer::AcceptWork) use this; simple peers leave the
  // default.
  //
  // With a non-null `trace`, the handshake is recorded as a causal
  // "connect" span under it (category kNet), with one "syn_retry"
  // instant per retransmitted SYN — how the 1 s / 2 s / 4 s backoff
  // spikes show up on a request's critical path.
  sim::Task<ConnectResult> Connect(bool hold_backlog = false,
                                   const obs::TraceHandle& trace = {});

  void Close();
  bool established() const { return established_; }

 private:
  TcpHost* client_;
  TcpHost* server_;
  bool port_held_ = false;
  bool established_ = false;
};

}  // namespace wimpy::net

#endif  // WIMPY_NET_TCP_H_
