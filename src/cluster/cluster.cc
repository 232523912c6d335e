#include "cluster/cluster.h"

#include <cassert>

#include "obs/metrics.h"

namespace wimpy::cluster {

Cluster::Cluster(sim::Scheduler* sched, net::Fabric* fabric)
    : sched_(sched), fabric_(fabric) {
  assert(sched != nullptr && fabric != nullptr);
}

std::vector<hw::ServerNode*> Cluster::AddNodes(
    const hw::HardwareProfile& profile, int count, const std::string& role,
    const std::string& fabric_group) {
  std::vector<hw::ServerNode*> added;
  added.reserve(count);
  for (int i = 0; i < count; ++i) {
    auto node = std::make_unique<hw::ServerNode>(sched_, profile, next_id_++);
    fabric_->AddNode(node.get(), fabric_group);
    roles_[role].push_back(node.get());
    added.push_back(node.get());
    nodes_.push_back(std::move(node));
  }
  return added;
}

const std::vector<hw::ServerNode*>& Cluster::NodesInRole(
    const std::string& role) const {
  static const std::vector<hw::ServerNode*> kEmpty;
  auto it = roles_.find(role);
  return it == roles_.end() ? kEmpty : it->second;
}

std::vector<hw::ServerNode*> Cluster::AllNodes() const {
  std::vector<hw::ServerNode*> all;
  all.reserve(nodes_.size());
  for (const auto& node : nodes_) all.push_back(node.get());
  return all;
}

hw::ServerNode* Cluster::node(int id) const {
  // Ids are handed out densely in creation order, so the id doubles as the
  // index — no scan.
  if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size()) return nullptr;
  assert(nodes_[static_cast<std::size_t>(id)]->id() == id);
  return nodes_[static_cast<std::size_t>(id)].get();
}

std::vector<hw::ServerNode*> Cluster::SelectRoles(
    const std::vector<std::string>& roles) const {
  if (roles.empty()) return AllNodes();
  std::vector<hw::ServerNode*> selected;
  for (const auto& role : roles) {
    for (auto* node : NodesInRole(role)) selected.push_back(node);
  }
  return selected;
}

Watts Cluster::TotalWatts(const std::vector<std::string>& roles) const {
  Watts total = 0;
  for (auto* node : SelectRoles(roles)) {
    total += node->power().current_watts();
  }
  return total;
}

Joules Cluster::CumulativeJoules(
    const std::vector<std::string>& roles) const {
  Joules total = 0;
  for (auto* node : SelectRoles(roles)) {
    total += node->power().CumulativeJoules();
  }
  return total;
}

double Cluster::MeanCpuBusy(const std::string& role) const {
  const auto& nodes = NodesInRole(role);
  if (nodes.empty()) return 0.0;
  double sum = 0;
  for (auto* node : nodes) sum += node->cpu().busy_fraction();
  return sum / static_cast<double>(nodes.size());
}

double Cluster::MeanMemoryUsed(const std::string& role) const {
  const auto& nodes = NodesInRole(role);
  if (nodes.empty()) return 0.0;
  double sum = 0;
  for (auto* node : nodes) sum += node->memory().used_fraction();
  return sum / static_cast<double>(nodes.size());
}

void Cluster::PublishMetrics(obs::MetricsRegistry* registry,
                             const std::vector<std::string>& roles,
                             const std::string& prefix) {
  // The mean over `roles` of each role's mean, in percent.
  auto mean_pct = [this, &roles](double (Cluster::*mean)(const std::string&)
                                     const) {
    return [this, roles, mean] {
      double sum = 0;
      for (const auto& role : roles) sum += (this->*mean)(role);
      const double n =
          roles.empty() ? 1.0 : static_cast<double>(roles.size());
      return 100.0 * sum / n;
    };
  };
  registry->Add(prefix + ".cpu_pct", mean_pct(&Cluster::MeanCpuBusy));
  registry->Add(prefix + ".mem_pct", mean_pct(&Cluster::MeanMemoryUsed));
  registry->Add(prefix + ".power_w",
                [this, roles] { return TotalWatts(roles); });
}

}  // namespace wimpy::cluster
