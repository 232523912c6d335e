#include "net/tcp.h"

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace wimpy::net {

namespace {
// First SYN retransmission timeout; each retry doubles it.
constexpr Duration kSynRetryBase = Seconds(1.0);
}  // namespace

TcpHost::TcpHost(Fabric* fabric, int node_id, const TcpConfig& config)
    : fabric_(fabric), node_id_(node_id), config_(config) {}

TcpHost::~TcpHost() {
  if (time_wait_event_ != 0) fabric_->scheduler().Cancel(time_wait_event_);
}

bool TcpHost::TryEnterBacklog() {
  if (backlog_depth_ >= config_.listen_backlog) return false;
  ++backlog_depth_;
  return true;
}

void TcpHost::LeaveBacklog() {
  if (backlog_depth_ > 0) --backlog_depth_;
}

bool TcpHost::TryOpenConnectionSlot() {
  if (connections_open_ >= config_.max_connections) return false;
  ++connections_open_;
  return true;
}

void TcpHost::CloseConnectionSlot() {
  if (config_.time_wait > 0) {
    // The slot stays occupied through TIME_WAIT; it frees in close order.
    time_wait_due_.push_back(fabric_->scheduler().now() + config_.time_wait);
    if (time_wait_event_ == 0) ArmTimeWaitHead();
    return;
  }
  if (connections_open_ > 0) --connections_open_;
}

void TcpHost::ArmTimeWaitHead() {
  time_wait_event_ = fabric_->scheduler().ScheduleAt(
      time_wait_due_.front(), [this] { OnTimeWaitExpiry(); });
}

void TcpHost::OnTimeWaitExpiry() {
  time_wait_event_ = 0;
  const SimTime now = fabric_->scheduler().now();
  // Every expiry due by now frees its slot inside this one engine event.
  while (!time_wait_due_.empty() && time_wait_due_.front() <= now) {
    time_wait_due_.pop_front();
    if (connections_open_ > 0) --connections_open_;
  }
  if (!time_wait_due_.empty()) ArmTimeWaitHead();
}

bool TcpHost::TryAllocatePort() {
  if (ports_in_use_ >= config_.ephemeral_ports) return false;
  ++ports_in_use_;
  return true;
}

void TcpHost::ReleasePort() {
  if (ports_in_use_ > 0) --ports_in_use_;
}

void TcpHost::PublishMetrics(obs::MetricsRegistry* registry,
                             const std::string& prefix) {
  registry->Add(prefix + ".ports", [this] {
    return static_cast<double>(ports_in_use_);
  });
  registry->Add(prefix + ".conns", [this] {
    return static_cast<double>(connections_open_);
  });
  registry->Add(prefix + ".backlog", [this] {
    return static_cast<double>(backlog_depth_);
  });
  registry->Add(prefix + ".syn_drops", [this] {
    return static_cast<double>(syn_drops_);
  });
}

TcpConnection::TcpConnection(TcpHost* client, TcpHost* server)
    : client_(client), server_(server) {}

TcpConnection::~TcpConnection() { Close(); }

sim::Task<ConnectResult> TcpConnection::Connect(
    bool hold_backlog, const obs::TraceHandle& trace) {
  ConnectResult result;
  sim::Scheduler& sched = client_->fabric().scheduler();
  const SimTime started = sched.now();
  obs::CausalSpan span(trace, "connect", obs::Category::kNet);

  if (!client_->TryAllocatePort()) {
    result.status = Status::ResourceExhausted("client ephemeral ports");
    co_return result;
  }
  port_held_ = true;

  Duration backoff = kSynRetryBase;
  for (int attempt = 0;; ++attempt) {
    // SYN travels to the server; if the backlog has room the handshake
    // completes after one RTT.
    if (server_->TryEnterBacklog()) {
      co_await client_->fabric().RoundTrip(client_->node_id(),
                                           server_->node_id());
      if (!server_->TryOpenConnectionSlot()) {
        // Accepted at SYN level but no descriptors left: connection reset.
        server_->LeaveBacklog();
        result.status =
            Status::ResourceExhausted("server connection slots");
        result.connect_delay = sched.now() - started;
        co_return result;
      }
      if (!hold_backlog) server_->LeaveBacklog();
      established_ = true;
      result.status = Status::Ok();
      result.connect_delay = sched.now() - started;
      result.retries = attempt;
      co_return result;
    }

    // SYN dropped silently; the client retransmits after the backoff.
    server_->CountSynDrop();
    span.Instant("syn_retry", attempt);
    if (attempt >= client_->config().syn_max_retries) {
      result.status = Status::Unavailable("connection timed out");
      result.connect_delay = sched.now() - started;
      result.retries = attempt;
      co_return result;
    }
    co_await sim::Delay(sched, backoff);
    backoff *= 2.0;
    result.retries = attempt + 1;
  }
}

void TcpConnection::Close() {
  if (established_) {
    server_->CloseConnectionSlot();
    established_ = false;
  }
  if (port_held_) {
    // tcp_tw_reuse is on (paper tuning): the port returns immediately.
    client_->ReleasePort();
    port_held_ = false;
  }
}

}  // namespace wimpy::net
