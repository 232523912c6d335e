// Node power model and energy metering.
//
// The paper measures whole-node power at two operating points (Table 3,
// idle vs busy) and reports cluster energy as the time integral of measured
// power. We reproduce that with a linear-in-utilisation model:
//
//   P(t) = idle + (busy - idle) * min(1, sum_i w_i * u_i(t))
//
// where u_i are the instantaneous busy fractions of CPU, memory bus,
// storage channel and NIC, and w_i are the profile's component weights
// (CPU-dominated, reflecting that high-end CPUs drive most of the dynamic
// range). Energy is integrated exactly over the piecewise-constant P(t).
#ifndef WIMPY_HW_POWER_H_
#define WIMPY_HW_POWER_H_

#include <functional>

#include "common/stats.h"
#include "hw/profile.h"
#include "sim/fair_share.h"
#include "sim/scheduler.h"

namespace wimpy::hw {

class NodePowerModel {
 public:
  // Subscribes to the four component servers' usage listeners. The power
  // model must outlive the servers' use of the callbacks (in practice both
  // live inside the same ServerNode).
  NodePowerModel(sim::Scheduler* sched, const PowerSpec& spec,
                 sim::FairShareServer* cpu, sim::FairShareServer* memory_bus,
                 sim::FairShareServer* storage, sim::FairShareServer* nic_tx,
                 sim::FairShareServer* nic_rx);

  NodePowerModel(const NodePowerModel&) = delete;
  NodePowerModel& operator=(const NodePowerModel&) = delete;

  Watts current_watts() const { return current_watts_; }
  Watts idle_watts() const { return spec_.idle; }
  Watts busy_watts() const { return spec_.busy; }

  // Energy consumed from construction until now.
  Joules CumulativeJoules() const;

  // Scales the CPU's contribution to the dynamic power range (DVFS: lower
  // voltage/frequency shrinks CPU dynamic power; other components keep
  // their full range — the paper's proportionality critique).
  void SetCpuDynamicScale(double scale);
  double cpu_dynamic_scale() const { return cpu_dynamic_scale_; }

  // Observes every change of the piecewise-constant P(t): called with
  // (simulated time, new watts) exactly when the level changes, which is
  // all a consumer needs to integrate energy exactly between changes
  // (obs::EnergyAttributor). One listener; null detaches.
  void SetPowerListener(std::function<void(SimTime, Watts)> listener) {
    power_listener_ = std::move(listener);
  }

  const PowerSpec& spec() const { return spec_; }

 private:
  void Update();
  Watts Compute() const;

  sim::Scheduler* sched_;
  PowerSpec spec_;
  double cpu_util_ = 0;
  double memory_util_ = 0;
  double storage_util_ = 0;
  double nic_tx_util_ = 0;
  double nic_rx_util_ = 0;
  double cpu_dynamic_scale_ = 1.0;
  Watts current_watts_;
  TimeWeightedAverage watts_history_;
  std::function<void(SimTime, Watts)> power_listener_;
};

}  // namespace wimpy::hw

#endif  // WIMPY_HW_POWER_H_
