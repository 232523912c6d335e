// Network fabric: endpoint NICs plus aggregate inter-group links.
//
// Topology model (paper §3, §4.4, §5.1.2): every node's NIC is a pair of
// fair-share channels (hw::NicModel); nodes are placed in *groups* (a rack
// or machine room with a non-blocking top-of-rack switch); traffic between
// groups additionally traverses a shared aggregate link of configured
// bandwidth — e.g. the single 1 Gbps uplink between the client room and the
// Edison room that caps aggregate web throughput in the paper's fairness
// discussion.
//
// A transfer completes when its last byte clears the slowest path segment;
// each segment is an independent fair-share server, which reproduces
// per-flow bandwidth sharing and aggregate bottleneck saturation.
//
// The links and routes are declared once, by net::HierarchicalTopology
// (net/topology.h), the only caller of the private SetGroupLink and
// SetGroupPath. A *group path* routes traffic between two groups through
// intermediate groups — rack → aggregation → core — so a cross-pod flow
// occupies both rack uplinks and the core hop concurrently and its
// bandwidth is the min fair share across all of them, which is exactly how
// oversubscription bites. A group pair the topology joins neither by a
// link nor by a path pays only the two NICs.
//
// Layout: group names are interned into dense integer ids at topology-build
// time; endpoints live in a flat vector indexed by node id (sparse ids leave
// holes) and the route of any directed group pair is a G×G table lookup.
// The steady-state Transfer path therefore does no string hashing, no
// ordered-map walks, and no heap allocation.
#ifndef WIMPY_NET_FABRIC_H_
#define WIMPY_NET_FABRIC_H_

#include <array>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hw/server_node.h"
#include "obs/context.h"
#include "obs/tracer.h"
#include "sim/fair_share.h"
#include "sim/process.h"
#include "sim/task.h"

namespace wimpy::obs {
class MetricsRegistry;
}  // namespace wimpy::obs

namespace wimpy::net {

class Fabric {
 public:
  explicit Fabric(sim::Scheduler* sched);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Registers a node in a group. Node ids must be unique across the fabric.
  void AddNode(hw::ServerNode* node, const std::string& group);

  bool HasNode(int node_id) const;

  // Dense interned id of the node's group (assigned in first-seen order at
  // topology-build time). Id-indexed callers (KV routing tables, per-node
  // probes) key off this instead of the group name.
  int GroupIdOf(int node_id) const;

  // One-way propagation latency between two nodes: both endpoint latencies
  // plus the route's latency when crossing groups. Loopback is ~free.
  Duration Latency(int src_id, int dst_id) const;
  Duration Rtt(int src_id, int dst_id) const {
    return 2.0 * Latency(src_id, dst_id);
  }

  class TransferOp;

  // Moves `bytes` from src to dst; completes when the last byte arrives.
  // Loopback transfers only pay a negligible fixed cost; an empty one
  // completes without suspending. Returns an awaiter (below), not a
  // task: co_await it in the expression that creates it.
  TransferOp Transfer(int src_id, int dst_id, Bytes bytes);

  // Traced transfer: same semantics and the same engine events, wrapped
  // in a causal child span named `name` (category kNet, arg = bytes)
  // under `trace` — the message "carries the context header". The span
  // opens when the awaiting coroutine suspends and closes when it
  // resumes; an empty transfer still records its zero-length span. A
  // null handle makes it exactly the untraced transfer.
  TransferOp Transfer(int src_id, int dst_id, Bytes bytes,
                      const obs::TraceHandle& trace, const char* name);

  // The awaiter a transfer is: it lives in the awaiting coroutine's frame
  // across the suspension, so a transfer holds no frame of its own. At
  // suspend it counts the NIC bytes and schedules one event after the
  // path latency; that event submits the bytes to every segment the flow
  // crosses (FairShareServer::ServeJoined), and the slowest segment's
  // completion resumes the awaiting coroutine directly.
  class [[nodiscard]] TransferOp {
   public:
    TransferOp(const TransferOp&) = delete;
    TransferOp& operator=(const TransferOp&) = delete;
    // Movable only before it is awaited, so that an awaiter embedding
    // one (web::WebServer::ReplyOp) can be returned from a task.
    TransferOp(TransferOp&&) noexcept = default;

    bool await_ready() const noexcept {
      return bytes_ <= 0 && trace_ == nullptr;
    }
    // Returns false (resume at once) only for an empty traced transfer.
    bool await_suspend(std::coroutine_handle<> caller);
    void await_resume() noexcept { span_ = obs::CausalSpan(); }

   private:
    friend class Fabric;
    TransferOp(Fabric* fabric, int src_id, int dst_id, Bytes bytes,
               const obs::TraceHandle* trace, const char* name)
        : fabric_(fabric),
          trace_(trace),
          name_(name),
          bytes_(bytes),
          src_id_(src_id),
          dst_id_(dst_id) {}

    // The latency event: joins the flow onto its segments.
    void Join(std::coroutine_handle<> caller);

    Fabric* fabric_;
    const obs::TraceHandle* trace_;  // null: untraced
    const char* name_;
    Bytes bytes_;
    int src_id_;
    int dst_id_;
    std::uint32_t remaining_ = 0;  // segments still serving the bytes
    obs::CausalSpan span_;         // open while suspended, if traced
  };

  // Small control message pair (SYN/ACK, ping): pays RTT, no bandwidth.
  sim::Task<void> RoundTrip(int src_id, int dst_id);

  // Time-averaged utilisation of the group link's busier direction since
  // construction (0 if none configured). The report-level counterpart of
  // the instantaneous gauge: where the oversubscription cliff shows up.
  double GroupLinkAverageBusyFraction(const std::string& a,
                                      const std::string& b) const;

  // Registers one busy-fraction gauge per group link, named
  // `<prefix>.link.<a>-<b>` (see docs/observability.md), in name order so
  // the column order is deterministic. Call it once the topology is
  // built: a link added afterwards aborts.
  void PublishMetrics(obs::MetricsRegistry* registry,
                      const std::string& prefix);

  sim::Scheduler& scheduler() { return *sched_; }

 private:
  friend class HierarchicalTopology;

  static constexpr int kMaxPathHops = 4;

  // Declares the shared aggregate link between two distinct groups (both
  // directions share one set of duplex channels, like a switch uplink).
  // Each group pair is routed once, by a link or by a path.
  void SetGroupLink(const std::string& a, const std::string& b,
                    BytesPerSecond bandwidth, Duration latency);

  // Routes a<->b traffic through the intermediate groups `via` (in a->b
  // order, non-empty): the flow traverses link(a, via[0]), link(via[0],
  // via[1]), ..., link(via.back(), b), occupying every hop concurrently.
  // Every hop's link must already be declared. At most kMaxPathHops hops.
  void SetGroupPath(const std::string& a, const std::string& b,
                    const std::vector<std::string>& via);

  struct Endpoint {
    hw::ServerNode* node = nullptr;
    int group = -1;  // interned group id
  };
  struct GroupLink {
    GroupLink(sim::Scheduler* sched, int a, int b, BytesPerSecond bandwidth)
        : a(a),
          b(b),
          forward(sched, bandwidth, bandwidth),
          backward(sched, bandwidth, bandwidth) {}

    int a;  // canonical pair: group_names_[a] <= group_names_[b]
    int b;
    sim::FairShareServer forward;   // a->b
    sim::FairShareServer backward;  // b->a
  };
  // The link channels a flow between two groups occupies concurrently,
  // in src->dst order, and their summed latency: one for a link, two to
  // kMaxPathHops for a path, none for a pair the topology does not join.
  struct Route {
    std::array<sim::FairShareServer*, kMaxPathHops> segs{};
    int nseg = 0;
    Duration latency = 0;
  };

  // The fair-share channels a flow between two distinct nodes occupies
  // concurrently, in join order: the source NIC's tx, the route's links
  // when crossing groups, the destination NIC's rx. Returns how many were
  // written.
  using SegmentList = std::array<sim::FairShareServer*, 2 + kMaxPathHops>;
  int Segments(int src_id, int dst_id, SegmentList& out) const;

  // Returns the dense id for a group name, interning it on first use (and
  // re-striding the route table, build time only).
  int InternGroup(const std::string& name);
  // Id of an already-interned group, or -1.
  int FindGroup(const std::string& name) const;
  const Endpoint& Lookup(int node_id) const;
  const GroupLink* FindLink(int a, int b) const;
  Route& RouteOf(int src_group, int dst_group) {
    return routes_[static_cast<std::size_t>(src_group) *
                       group_names_.size() +
                   static_cast<std::size_t>(dst_group)];
  }
  const Route& RouteOf(int src_group, int dst_group) const {
    return const_cast<Fabric*>(this)->RouteOf(src_group, dst_group);
  }

  sim::Scheduler* sched_;
  std::vector<std::string> group_names_;  // indexed by group id
  std::vector<Endpoint> endpoints_;       // indexed by node id, with holes
  // A deque, so routes and gauge closures can hold stable pointers.
  std::deque<GroupLink> links_;
  std::vector<Route> routes_;  // [src_group * G + dst_group]
  bool published_ = false;     // PublishMetrics has run
};

}  // namespace wimpy::net

#endif  // WIMPY_NET_FABRIC_H_
