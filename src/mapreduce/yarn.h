// YARN model: ResourceManager + NodeManagers allocating memory-sized
// containers on slave nodes.
//
// Like the real CapacityScheduler default, admission is *memory-based*:
// vcores are advisory. That is what lets the paper run four 150 MB map
// containers on a 2-vcore Edison (wordcount) — oversubscribing the cores —
// while wordcount2's 300 MB containers pin one per vcore.
//
// Allocation requests are served FIFO at resource-manager heartbeat
// granularity; the heartbeat plus JVM spin-up is the "container allocation
// overhead" the paper repeatedly identifies (§5.2.1: the CPU-usage rise
// lags job start by ~45 s on Edison, ~20 s on Dell).
#ifndef WIMPY_MAPREDUCE_YARN_H_
#define WIMPY_MAPREDUCE_YARN_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "hw/server_node.h"
#include "sim/process.h"
#include "sim/task.h"

namespace wimpy::obs {
class MetricsRegistry;
}  // namespace wimpy::obs

namespace wimpy::mapreduce {

struct YarnConfig {
  // Memory available for containers per node, after OS + datanode +
  // node-manager baselines (600 MB Edison, 12 GB Dell in the paper).
  Bytes node_usable_memory = MB(600);
  int node_vcores = 2;
  // Application-master container (100 MB Edison, 500 MB Dell).
  Bytes am_memory = MB(100);
  // RM scheduling heartbeat.
  Duration heartbeat = Seconds(1.0);
  // Containers the RM assigns to one node per heartbeat. This is the
  // dominant container-allocation overhead: a job with hundreds of tiny
  // splits drains slowly onto a 2-node Dell cluster (2 nodes x k per
  // second) but quickly onto 35 Edisons — the paper's §5.2.1 observation
  // that "huge parallelism helps the Edison cluster when there are higher
  // container allocation overheads".
  int containers_per_node_heartbeat = 2;
};

struct Container {
  hw::ServerNode* node = nullptr;
  Bytes memory = 0;
  // Whether the hardware memory model accepted the mirrored reservation
  // (it may be full of daemon baselines); Release only frees what was
  // actually reserved.
  bool hw_reserved = false;
  bool valid() const { return node != nullptr; }
};

class Yarn {
 public:
  Yarn(std::vector<hw::ServerNode*> slaves, const YarnConfig& config);

  Yarn(const Yarn&) = delete;
  Yarn& operator=(const Yarn&) = delete;

  // Awaits a container of `memory` bytes. `preferred_nodes` (e.g. the
  // nodes holding the input block's replicas) win ties; allocation falls
  // back to the least-loaded node otherwise. Also reserves the memory in
  // the node's hardware model so utilisation telemetry sees it.
  sim::Task<Container> Allocate(Bytes memory,
                                const std::vector<int>& preferred_nodes);

  void Release(const Container& container);

  const YarnConfig& config() const { return config_; }
  std::int64_t containers_allocated() const { return allocated_; }
  // True when the chosen node was in the preferred list.
  bool last_allocation_was_preferred() const { return last_preferred_; }

  // Slave lookup by node id; nullptr when unknown.
  hw::ServerNode* NodeById(int node_id) const;

  // Total container memory across all slaves (for share bounds).
  Bytes TotalUsableMemory() const {
    return config_.node_usable_memory *
           static_cast<Bytes>(slaves_.size());
  }

  // Registers scheduler probes: `<prefix>.containers` (cumulative
  // allocations) and `<prefix>.mem_used_frac` (allocated fraction of the
  // cluster's container memory). See docs/observability.md.
  void PublishMetrics(obs::MetricsRegistry* registry,
                      const std::string& prefix);

 private:
  // Returns the chosen node or nullptr when nothing fits.
  hw::ServerNode* TryPick(Bytes memory,
                          const std::vector<int>& preferred_nodes);
  // Rolls the node's heartbeat window forward and reports whether it can
  // still be assigned a container this heartbeat.
  bool HeartbeatBudgetLeft(int node_id);

  std::vector<hw::ServerNode*> slaves_;
  YarnConfig config_;
  std::map<int, Bytes> free_memory_;  // node id -> unallocated bytes
  // Per-node heartbeat window accounting for assignment rate limiting.
  struct HeartbeatWindow {
    Duration window_start = -1;
    int assigned = 0;
  };
  std::map<int, HeartbeatWindow> heartbeat_;
  std::int64_t allocated_ = 0;
  bool last_preferred_ = false;
};

}  // namespace wimpy::mapreduce

#endif  // WIMPY_MAPREDUCE_YARN_H_
