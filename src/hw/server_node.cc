#include "hw/server_node.h"

#include "obs/energy.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace wimpy::hw {

ServerNode::ServerNode(sim::Scheduler* sched, const HardwareProfile& profile,
                       int id)
    : sched_(sched),
      profile_(profile),
      id_(id),
      name_(profile.name + "-" + std::to_string(id)),
      cpu_(sched, profile.cpu),
      memory_(sched, profile.memory),
      storage_(sched, profile.storage),
      nic_(sched, profile.nic),
      power_(sched, profile.power, &cpu_.server(), &memory_.bus(),
             &storage_.channel(), &nic_.tx(), &nic_.rx()) {}

void ServerNode::PublishMetrics(obs::MetricsRegistry* registry,
                                const std::string& prefix) {
  registry->Add(prefix + ".cpu_busy", [this] { return cpu_.busy_fraction(); });
  registry->Add(prefix + ".mem_used",
                [this] { return memory_.used_fraction(); });
  registry->Add(prefix + ".nic_busy", [this] { return nic_.busy_fraction(); });
  registry->Add(prefix + ".storage_busy",
                [this] { return storage_.busy_fraction(); });
  registry->Add(prefix + ".power_w", [this] { return power_.current_watts(); });
  registry->Add(prefix + ".joules",
                [this] { return power_.CumulativeJoules(); });
}

void ServerNode::PublishTelemetry(obs::Telemetry* telemetry,
                                  const std::string& prefix) {
  telemetry->AddProbe(prefix + ".cpu_busy",
                      [this] { return cpu_.busy_fraction(); });
  telemetry->AddProbe(prefix + ".power_w",
                      [this] { return power_.current_watts(); });
}

void ServerNode::ObserveEnergy(obs::EnergyAttributor* attributor) {
  if (attributor == nullptr) return;
  power_.SetPowerListener(
      attributor->ObserveNode(sched_, id_, power_.current_watts()));
}

}  // namespace wimpy::hw
