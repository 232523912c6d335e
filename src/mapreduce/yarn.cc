#include "mapreduce/yarn.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace wimpy::mapreduce {

Yarn::Yarn(std::vector<hw::ServerNode*> slaves, const YarnConfig& config)
    : slaves_(std::move(slaves)), config_(config) {
  assert(!slaves_.empty());
  for (auto* node : slaves_) {
    free_memory_[node->id()] = config_.node_usable_memory;
  }
}

bool Yarn::HeartbeatBudgetLeft(int node_id) {
  const Duration now = slaves_.front()->scheduler().now();
  HeartbeatWindow& window = heartbeat_[node_id];
  if (window.window_start < 0 ||
      now - window.window_start >= config_.heartbeat) {
    window.window_start = now;
    window.assigned = 0;
  }
  return window.assigned < config_.containers_per_node_heartbeat;
}

hw::ServerNode* Yarn::TryPick(Bytes memory,
                              const std::vector<int>& preferred_nodes) {
  // Locality first.
  for (int id : preferred_nodes) {
    auto it = free_memory_.find(id);
    if (it != free_memory_.end() && it->second >= memory &&
        HeartbeatBudgetLeft(id)) {
      for (auto* node : slaves_) {
        if (node->id() == id) {
          last_preferred_ = true;
          return node;
        }
      }
    }
  }
  // Fall back to the node with the most free container memory (spread).
  hw::ServerNode* best = nullptr;
  Bytes best_free = memory - 1;
  for (auto* node : slaves_) {
    const Bytes free = free_memory_[node->id()];
    if (free > best_free && HeartbeatBudgetLeft(node->id())) {
      best_free = free;
      best = node;
    }
  }
  last_preferred_ = false;
  return best;
}

sim::Task<Container> Yarn::Allocate(
    Bytes memory, const std::vector<int>& preferred_nodes) {
  sim::Scheduler& sched = slaves_.front()->scheduler();
  for (;;) {
    hw::ServerNode* node = TryPick(memory, preferred_nodes);
    if (node != nullptr) {
      ++heartbeat_[node->id()].assigned;
      free_memory_[node->id()] -= memory;
      // Mirror into the hardware model so memory telemetry is truthful;
      // best-effort because daemons may already occupy headroom.
      const bool reserved = node->memory().TryReserve(memory);
      ++allocated_;
      co_return Container{node, memory, reserved};
    }
    co_await sim::Delay(sched, config_.heartbeat);
  }
}

void Yarn::Release(const Container& container) {
  assert(container.valid());
  free_memory_[container.node->id()] += container.memory;
  if (container.hw_reserved) {
    container.node->memory().Free(container.memory);
  }
}

hw::ServerNode* Yarn::NodeById(int node_id) const {
  for (auto* node : slaves_) {
    if (node->id() == node_id) return node;
  }
  return nullptr;
}

void Yarn::PublishMetrics(obs::MetricsRegistry* registry,
                          const std::string& prefix) {
  registry->Add(prefix + ".containers", [this] {
    return static_cast<double>(allocated_);
  });
  registry->Add(prefix + ".mem_used_frac", [this] {
    Bytes free = 0;
    for (const auto& [id, bytes] : free_memory_) free += bytes;
    const Bytes total = TotalUsableMemory();
    if (total <= 0) return 0.0;
    return 1.0 - static_cast<double>(free) / static_cast<double>(total);
  });
}

}  // namespace wimpy::mapreduce
