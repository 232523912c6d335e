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
// Beyond single links, a *group path* (SetGroupPath) routes traffic between
// two groups through intermediate groups — rack → aggregation → core — so a
// hierarchical datacenter tree (net/topology.h) composes from pairwise
// links: a cross-pod flow occupies both rack uplinks and the core hop
// concurrently and its bandwidth is the min fair share across all of them,
// which is exactly how oversubscription bites.
//
// Layout: group names are interned into dense integer ids at topology-build
// time; endpoints live in a flat vector indexed by node id (sparse ids leave
// holes) and the directed link channel / latency for any group pair is a
// G×G table lookup. The steady-state Transfer path therefore does no string
// hashing, no ordered-map walks, and no heap allocation.
#ifndef WIMPY_NET_FABRIC_H_
#define WIMPY_NET_FABRIC_H_

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hw/server_node.h"
#include "obs/context.h"
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

  // Configures the shared aggregate link between two groups (both
  // directions share one set of duplex channels, like a switch uplink).
  // Calling again replaces the previous configuration.
  void SetGroupLink(const std::string& a, const std::string& b,
                    BytesPerSecond bandwidth, Duration latency);

  // Routes a<->b traffic through the intermediate groups `via` (in a->b
  // order): the flow traverses link(a, via[0]), link(via[0], via[1]), ...,
  // link(via.back(), b), occupying every hop concurrently. All hops must
  // already be configured with SetGroupLink by the time traffic flows (the
  // path is re-resolved whenever the topology changes, so call order
  // doesn't matter). At most kMaxPathHops hops. Calling again replaces the
  // previous path for the pair; an empty `via` restores direct routing.
  void SetGroupPath(const std::string& a, const std::string& b,
                    const std::vector<std::string>& via);

  static constexpr int kMaxPathHops = 4;

  bool HasNode(int node_id) const;
  const std::string& GroupOf(int node_id) const;

  // Dense interned id of the node's group (assigned in first-seen order at
  // topology-build time). Id-indexed callers (KV routing tables, per-node
  // probes) key off this instead of the group name.
  int GroupIdOf(int node_id) const;

  // One-way propagation latency between two nodes: both endpoint latencies
  // plus the group link's latency when crossing groups. Loopback is ~free.
  Duration Latency(int src_id, int dst_id) const;
  Duration Rtt(int src_id, int dst_id) const {
    return 2.0 * Latency(src_id, dst_id);
  }

  // Moves `bytes` from src to dst; completes when the last byte arrives.
  // Loopback transfers only pay a negligible fixed cost.
  sim::Task<void> Transfer(int src_id, int dst_id, Bytes bytes);

  // Traced transfer: same semantics, wrapped in a causal child span
  // named `name` (category kNet, arg = bytes) under `trace` — the
  // message "carries the context header". A null handle returns the
  // plain Transfer task itself, so an untraced transfer holds no
  // wrapper frame.
  sim::Task<void> Transfer(int src_id, int dst_id, Bytes bytes,
                           const obs::TraceHandle& trace, const char* name);

  // Small control message pair (SYN/ACK, ping): pays RTT, no bandwidth.
  sim::Task<void> RoundTrip(int src_id, int dst_id);

  // Instantaneous utilisation of the group link (0 if none configured).
  double GroupLinkBusyFraction(const std::string& a,
                               const std::string& b) const;

  // Time-averaged utilisation of the group link's busier direction since
  // construction (0 if none configured). The report-level counterpart of
  // the instantaneous gauge: where the oversubscription cliff shows up.
  double GroupLinkAverageBusyFraction(const std::string& a,
                                      const std::string& b) const;

  // Registers one busy-fraction gauge per configured group link, named
  // `<prefix>.link.<a>-<b>` (see docs/observability.md). Links configured
  // *after* this call are published too, at SetGroupLink time (appended
  // after the existing columns); links present now are registered
  // name-sorted, so a fully built topology keeps its deterministic column
  // order.
  void PublishMetrics(obs::MetricsRegistry* registry,
                      const std::string& prefix);

  sim::Scheduler& scheduler() { return *sched_; }

 private:
  struct Endpoint {
    hw::ServerNode* node = nullptr;
    int group = -1;  // interned group id
  };
  struct GroupLink {
    int a = -1;  // canonical pair: group_names_[a] <= group_names_[b]
    int b = -1;
    std::unique_ptr<sim::FairShareServer> forward;   // a->b
    std::unique_ptr<sim::FairShareServer> backward;  // b->a
    Duration latency = 0;
    bool published = false;  // gauge already registered
  };
  // A multi-hop route between two groups: the full group sequence
  // [a, via..., b], stored by name so it survives re-interning and link
  // replacement. Resolved into the flat path table on every rebuild.
  struct GroupPath {
    std::vector<std::string> groups;
  };
  // Resolved directed route: up to kMaxPathHops link channels a flow
  // occupies concurrently, plus the summed hop latency. nseg == 0 means
  // "no multi-hop path; use the direct link table".
  struct PathEntry {
    std::array<sim::FairShareServer*, kMaxPathHops> segs{};
    int nseg = 0;
    Duration latency = 0;
  };

  // The sampled half of the traced Transfer; takes the handle by value
  // so the span never depends on the caller's storage.
  sim::Task<void> TracedTransfer(int src_id, int dst_id, Bytes bytes,
                                 obs::TraceHandle trace, const char* name);

  // Returns the dense id for a group name, interning it on first use.
  int InternGroup(const std::string& name);
  // Id of an already-interned group, or -1.
  int FindGroup(const std::string& name) const;
  const Endpoint& Lookup(int node_id) const;
  GroupLink* FindLink(int a, int b);
  const GroupLink* FindLink(int a, int b) const;
  // Registers the link's busy-fraction gauge with the stored registry (a
  // no-op before PublishMetrics has been called).
  void PublishLink(GroupLink* link);
  // Re-derives the G×G directed channel/latency tables from links_ and
  // re-resolves paths_ into path_table_. Called whenever a group, link,
  // or path is added — build time only.
  void RebuildLinkTables();

  sim::Scheduler* sched_;
  std::vector<std::string> group_names_;  // indexed by group id
  std::vector<Endpoint> endpoints_;       // indexed by node id, with holes
  // unique_ptr so gauge closures and the flat tables can hold stable
  // pointers across vector growth and link replacement.
  std::vector<std::unique_ptr<GroupLink>> links_;
  // Directed [src_group * G + dst_group] tables; nullptr / 0 where the
  // pair has no configured aggregate link.
  std::vector<sim::FairShareServer*> channels_;
  std::vector<Duration> link_latencies_;
  // Configured multi-hop routes (by name) and the resolved directed
  // [src_group * G + dst_group] table derived from them.
  std::vector<GroupPath> paths_;
  std::vector<PathEntry> path_table_;
  // Set by PublishMetrics so links configured later self-register.
  obs::MetricsRegistry* metrics_registry_ = nullptr;
  std::string metrics_prefix_;
};

}  // namespace wimpy::net

#endif  // WIMPY_NET_FABRIC_H_
