#include "hw/power.h"

#include <algorithm>

namespace wimpy::hw {

NodePowerModel::NodePowerModel(sim::Scheduler* sched, const PowerSpec& spec,
                               sim::FairShareServer* cpu,
                               sim::FairShareServer* memory_bus,
                               sim::FairShareServer* storage,
                               sim::FairShareServer* nic_tx,
                               sim::FairShareServer* nic_rx)
    : sched_(sched), spec_(spec), current_watts_(spec.idle) {
  watts_history_.Set(sched_->now(), current_watts_);
  cpu->SetUsageListener([this](double u) {
    cpu_util_ = u;
    Update();
  });
  memory_bus->SetUsageListener([this](double u) {
    memory_util_ = u;
    Update();
  });
  storage->SetUsageListener([this](double u) {
    storage_util_ = u;
    Update();
  });
  nic_tx->SetUsageListener([this](double u) {
    nic_tx_util_ = u;
    Update();
  });
  nic_rx->SetUsageListener([this](double u) {
    nic_rx_util_ = u;
    Update();
  });
}

Watts NodePowerModel::Compute() const {
  const double nic_util = std::max(nic_tx_util_, nic_rx_util_);
  const double mix = spec_.cpu_weight * cpu_util_ * cpu_dynamic_scale_ +
                     spec_.memory_weight * memory_util_ +
                     spec_.storage_weight * storage_util_ +
                     spec_.nic_weight * nic_util;
  return spec_.idle + (spec_.busy - spec_.idle) * std::min(1.0, mix);
}

void NodePowerModel::Update() {
  const Watts w = Compute();
  if (w == current_watts_) return;
  current_watts_ = w;
  watts_history_.Set(sched_->now(), w);
  if (power_listener_) power_listener_(sched_->now(), w);
}

void NodePowerModel::SetCpuDynamicScale(double scale) {
  cpu_dynamic_scale_ = scale;
  Update();
}

Joules NodePowerModel::CumulativeJoules() const {
  return watts_history_.IntegralUntil(sched_->now());
}

}  // namespace wimpy::hw
