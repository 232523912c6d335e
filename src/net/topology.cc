#include "net/topology.h"

#include <algorithm>

#include "common/check.h"
#include "net/fabric.h"

namespace wimpy::net {

namespace {

// A bad geometry divides by zero (racks_per_pod = 0) or builds
// zero-bandwidth links.
void Check(bool ok, const char* what) {
  wimpy::Check(ok, "net::HierarchicalTopology", what);
}

// One-way latency of a ToR uplink and of a pod's link to the core.
constexpr Duration kRackUplinkLatency = Microseconds(5);
constexpr Duration kCoreLinkLatency = Microseconds(20);

}  // namespace

HierarchicalTopology::HierarchicalTopology(
    Fabric* fabric, const HierarchicalTopologyConfig& config)
    : fabric_(fabric), config_(config) {
  Check(fabric != nullptr, "fabric must not be null");
  Check(config_.racks > 0, "racks must be > 0");
  Check(config_.racks_per_pod > 0, "racks_per_pod must be > 0");
  Check(config_.rack_name.empty() || config_.racks == 1,
        "rack_name names the rack of a one-rack tree");

  const int pods =
      (config_.racks + config_.racks_per_pod - 1) / config_.racks_per_pod;
  rack_groups_.reserve(static_cast<std::size_t>(config_.racks));
  for (int r = 0; r < config_.racks; ++r) {
    rack_groups_.push_back(config_.rack_name.empty()
                               ? "rack" + std::to_string(r)
                               : config_.rack_name);
  }
  agg_groups_.reserve(static_cast<std::size_t>(pods));
  for (int p = 0; p < pods; ++p) {
    agg_groups_.push_back("agg" + std::to_string(p));
  }

  // One rack is the degenerate tree: its ToR is the whole fabric, so it
  // has no uplink, and AttachToCore links a room straight to it.
  if (config_.racks == 1) return;

  Check(config_.nodes_per_rack > 0, "nodes_per_rack must be > 0");
  Check(config_.node_bandwidth > 0, "node_bandwidth must be > 0");
  Check(config_.rack_oversubscription >= 1.0,
        "rack_oversubscription must be >= 1");
  Check(config_.core_oversubscription >= 1.0,
        "core_oversubscription must be >= 1");
  rack_uplink_bw_ = config_.nodes_per_rack * config_.node_bandwidth /
                    config_.rack_oversubscription;

  // Access layer: each rack's ToR uplink into its pod's aggregation
  // switch, thinned by the rack oversubscription ratio.
  for (int r = 0; r < config_.racks; ++r) {
    fabric_->SetGroupLink(RackGroup(r), AggGroup(PodOfRack(r)),
                          rack_uplink_bw_, kRackUplinkLatency);
  }
  // Aggregation layer: each pod's uplink to the core, thinned again.
  for (int p = 0; p < pods; ++p) {
    fabric_->SetGroupLink(AggGroup(p), CoreGroup(),
                          pod_uplink_bandwidth(p), kCoreLinkLatency);
  }

  // Routes: same-pod rack pairs bounce off the aggregation switch;
  // cross-pod pairs ride agg → core → agg.
  for (int i = 0; i < config_.racks; ++i) {
    for (int j = i + 1; j < config_.racks; ++j) {
      const int pi = PodOfRack(i);
      const int pj = PodOfRack(j);
      if (pi == pj) {
        fabric_->SetGroupPath(RackGroup(i), RackGroup(j), {AggGroup(pi)});
      } else {
        fabric_->SetGroupPath(RackGroup(i), RackGroup(j),
                              {AggGroup(pi), CoreGroup(), AggGroup(pj)});
      }
    }
  }
}

int HierarchicalTopology::RacksInPod(int pod) const {
  const int first = pod * config_.racks_per_pod;
  return std::min(config_.racks_per_pod, config_.racks - first);
}

BytesPerSecond HierarchicalTopology::pod_uplink_bandwidth(int pod) const {
  return RacksInPod(pod) * rack_uplink_bw_ / config_.core_oversubscription;
}

bool HierarchicalTopology::Attached(const std::string& group) const {
  return std::find(attached_.begin(), attached_.end(), group) !=
         attached_.end();
}

void HierarchicalTopology::AttachToCore(const std::string& group,
                                        const RoomLink& link) {
  // In the degenerate one-rack tree, the rack's ToR stands in for the
  // core: the room's access link ends there and is its only hop to a node.
  if (config_.racks == 1) {
    fabric_->SetGroupLink(group, RackGroup(0), link.bandwidth, link.latency);
  } else {
    // The new room reaches every rack through core → pod agg.
    fabric_->SetGroupLink(group, CoreGroup(), link.bandwidth, link.latency);
    for (int r = 0; r < config_.racks; ++r) {
      fabric_->SetGroupPath(group, RackGroup(r),
                            {CoreGroup(), AggGroup(PodOfRack(r))});
    }
  }
  attached_.push_back(group);
}

void HierarchicalTopology::LinkRooms(const std::string& a,
                                     const std::string& b,
                                     const RoomLink& link) {
  Check(Attached(a) && Attached(b), "LinkRooms joins two attached rooms");
  fabric_->SetGroupLink(a, b, link.bandwidth, link.latency);
}

}  // namespace wimpy::net
