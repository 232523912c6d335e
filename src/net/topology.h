// Hierarchical datacenter topology builder: rack → aggregation → core.
//
// The flat fabric models one room with one uplink; real scale-out clusters
// (and the paper's cost model in §6) hang many racks off aggregation
// switches with a configurable *oversubscription ratio* — the ToR uplink
// carries only 1/k of the sum of its member NICs, and the pod-to-core hop
// thins again. This builder lays that tree onto a Fabric: it creates the
// rack/aggregation/core groups, sizes every uplink from the node NIC
// bandwidth and the two oversubscription knobs, and declares the
// multi-hop group paths (Fabric::SetGroupPath) so a cross-pod flow
// occupies both rack uplinks and the core hop concurrently. Node
// placement stays with the caller (cluster::Cluster::AddNodes into
// `RackGroup(i)`).
//
// One rack is the degenerate tree, the paper's single-room rig: it
// builds no aggregation or core link, and `AttachToCore` links a room
// straight to `rack0`, so a client↔store flow crosses exactly one link.
#ifndef WIMPY_NET_TOPOLOGY_H_
#define WIMPY_NET_TOPOLOGY_H_

#include <string>
#include <vector>

#include "common/units.h"

namespace wimpy::net {

class Fabric;

struct HierarchicalTopologyConfig {
  int racks = 3;
  int racks_per_pod = 2;  // racks per aggregation switch
  int nodes_per_rack = 4;
  // Per-node NIC bandwidth; feeds the uplink-capacity math.
  BytesPerSecond node_bandwidth = 0;
  // ToR uplink = nodes_per_rack * node_bandwidth / rack_oversubscription.
  double rack_oversubscription = 4.0;
  // Pod uplink = (sum of the pod's rack uplinks) / core_oversubscription.
  double core_oversubscription = 1.0;
  Duration rack_uplink_latency = Microseconds(5);
  Duration core_link_latency = Microseconds(20);
};

class HierarchicalTopology {
 public:
  // Builds all groups, links, and paths on `fabric` (borrowed; must
  // outlive the topology). Group names: "rack<i>", "agg<p>", "core".
  HierarchicalTopology(Fabric* fabric,
                       const HierarchicalTopologyConfig& config);

  HierarchicalTopology(const HierarchicalTopology&) = delete;
  HierarchicalTopology& operator=(const HierarchicalTopology&) = delete;

  const std::string& RackGroup(int rack) const {
    return rack_groups_[static_cast<std::size_t>(rack)];
  }
  const std::string& AggGroup(int pod) const {
    return agg_groups_[static_cast<std::size_t>(pod)];
  }
  static const char* CoreGroup() { return "core"; }

  int racks() const { return config_.racks; }
  int pods() const { return static_cast<int>(agg_groups_.size()); }
  int PodOfRack(int rack) const { return rack / config_.racks_per_pod; }

  // Attaches an external group (a client room, a storage pool) directly
  // to the core switch with its own access link, and declares paths from
  // it to every rack and every previously attached group. In a one-rack
  // tree the access link ends at `rack0` instead.
  void AttachToCore(const std::string& group, BytesPerSecond bandwidth,
                    Duration latency);

  BytesPerSecond rack_uplink_bandwidth() const { return rack_uplink_bw_; }
  // Uplink of pod `pod` to the core (pods may be unevenly filled).
  BytesPerSecond pod_uplink_bandwidth(int pod) const;

  const HierarchicalTopologyConfig& config() const { return config_; }

 private:
  int RacksInPod(int pod) const;

  Fabric* fabric_;
  HierarchicalTopologyConfig config_;
  std::vector<std::string> rack_groups_;
  std::vector<std::string> agg_groups_;
  std::vector<std::string> attached_;  // core-attached external groups
  BytesPerSecond rack_uplink_bw_ = 0;
};

}  // namespace wimpy::net

#endif  // WIMPY_NET_TOPOLOGY_H_
