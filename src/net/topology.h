// Hierarchical datacenter topology builder: rack → aggregation → core.
//
// The flat fabric models one room with one uplink; real scale-out clusters
// (and the paper's cost model in §6) hang many racks off aggregation
// switches with a configurable *oversubscription ratio* — the ToR uplink
// carries only 1/k of the sum of its member NICs, and the pod-to-core hop
// thins again. This builder lays that tree onto a Fabric: it creates the
// rack/aggregation/core groups, sizes every uplink from the node NIC
// bandwidth and the two oversubscription knobs, and declares the
// multi-hop group paths so a cross-pod flow occupies both rack uplinks
// and the core hop concurrently. It is the one place a Fabric's links
// and routes are declared. Node placement stays with the caller
// (cluster::Cluster::AddNodes into `RackGroup(i)`).
//
// One rack is the degenerate tree: it builds no aggregation or core link,
// and `AttachToCore` links a room straight to the rack, so a client↔store
// flow crosses exactly one link. The paper's rigs (§5.1.2) are one-rack
// trees whose rack is a machine room: clients and the Dell room attach to
// the Edison room, and `LinkRooms` gives clients their own direct link to
// the Dell room.
#ifndef WIMPY_NET_TOPOLOGY_H_
#define WIMPY_NET_TOPOLOGY_H_

#include <string>
#include <vector>

#include "common/units.h"

namespace wimpy::net {

class Fabric;

struct HierarchicalTopologyConfig {
  int racks = 3;
  // Names the rack of a one-rack tree (a paper room); empty: "rack<i>".
  std::string rack_name;
  int racks_per_pod = 2;  // racks per aggregation switch
  // The uplink inputs below are read only when racks > 1.
  int nodes_per_rack = 4;
  // Per-node NIC bandwidth; feeds the uplink-capacity math.
  BytesPerSecond node_bandwidth = 0;
  // ToR uplink = nodes_per_rack * node_bandwidth / rack_oversubscription.
  double rack_oversubscription = 4.0;
  // Pod uplink = (sum of the pod's rack uplinks) / core_oversubscription.
  double core_oversubscription = 1.0;
};

// An attached room's link: its bandwidth (each direction) and one-way
// latency.
struct RoomLink {
  BytesPerSecond bandwidth = 0;
  Duration latency = 0;
};

// The paper's room links (§5.1.2): clients reach the Edison room over a
// single 1 Gbps uplink but the Dell room at 2 Gbps aggregate; the Edison
// and Dell rooms interconnect at 1 Gbps.
inline constexpr RoomLink kClientEdisonLink{Gbps(1), Milliseconds(0.05)};
inline constexpr RoomLink kClientDellLink{Gbps(2), Milliseconds(0.02)};
inline constexpr RoomLink kEdisonDellLink{Gbps(1), Milliseconds(0.02)};

class HierarchicalTopology {
 public:
  // Builds all groups, links, and paths on `fabric` (borrowed; must
  // outlive the topology). Group names: "rack<i>" (or `rack_name`),
  // "agg<p>", "core".
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
  // it to every rack. In a one-rack tree the access link ends at the rack
  // instead. Attached rooms do not reach each other through the core:
  // two rooms that exchange traffic get a LinkRooms link, and without one
  // their traffic crosses no group link.
  void AttachToCore(const std::string& group, const RoomLink& link);

  // Joins two attached rooms with their own direct link, the only one
  // their traffic crosses (the paper's client↔Dell link).
  void LinkRooms(const std::string& a, const std::string& b,
                 const RoomLink& link);

  BytesPerSecond rack_uplink_bandwidth() const { return rack_uplink_bw_; }
  // Uplink of pod `pod` to the core (pods may be unevenly filled).
  BytesPerSecond pod_uplink_bandwidth(int pod) const;

 private:
  int RacksInPod(int pod) const;
  bool Attached(const std::string& group) const;

  Fabric* fabric_;
  HierarchicalTopologyConfig config_;
  std::vector<std::string> rack_groups_;
  std::vector<std::string> agg_groups_;
  std::vector<std::string> attached_;  // core-attached external groups
  BytesPerSecond rack_uplink_bw_ = 0;  // 0 in a one-rack tree
};

}  // namespace wimpy::net

#endif  // WIMPY_NET_TOPOLOGY_H_
