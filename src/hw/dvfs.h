// Dynamic voltage/frequency scaling (DVFS) governor.
//
// The paper's introduction argues that DVFS-based energy proportionality
// underdelivers: CPU dynamic power shrinks with V²f, but memory, disk,
// motherboard (and here, the USB Ethernet adapter) keep drawing constant
// power, so whole-node savings are modest (§1 cites ≤30% as the best
// case). This module makes that claim testable: attach a governor to a
// node, run a workload at partial utilisation, and compare joules against
// the fixed-frequency baseline (bench_ablations).
//
// Model: a P-state scales CPU capacity (and per-thread speed) by
// `frequency_scale` and the CPU's share of the node's dynamic power range
// by `dynamic_power_scale` (≈ scale³ for combined V²f scaling, clamped by
// practical voltage floors).
#ifndef WIMPY_HW_DVFS_H_
#define WIMPY_HW_DVFS_H_

#include <vector>

#include "hw/server_node.h"
#include "sim/scheduler.h"

namespace wimpy::hw {

struct PState {
  double frequency_scale = 1.0;     // of nominal capacity
  double dynamic_power_scale = 1.0; // of the CPU dynamic power range
};

// The classic Linux trio.
enum class GovernorPolicy {
  kPerformance,  // pin the highest P-state
  kPowersave,    // pin the lowest P-state
  kOndemand,     // sample utilisation; jump up fast, step down slowly
};

struct DvfsConfig {
  std::vector<PState> pstates;  // ordered fastest -> slowest
  GovernorPolicy policy = GovernorPolicy::kOndemand;
};

// A typical 5-state ladder: 100/85/70/55/40 % frequency with cubic power
// scaling floored at 25%.
DvfsConfig DefaultDvfsConfig(GovernorPolicy policy);

class DvfsGovernor {
 public:
  // Attaches to a node; Start() begins sampling. The governor adjusts the
  // node's CPU rates and its power model's dynamic-range scale.
  DvfsGovernor(ServerNode* node, DvfsConfig config);
  ~DvfsGovernor();

  DvfsGovernor(const DvfsGovernor&) = delete;
  DvfsGovernor& operator=(const DvfsGovernor&) = delete;

  void Start();
  void Stop();

  int current_pstate() const { return state_; }
  std::int64_t transitions() const { return transitions_; }

 private:
  void Sample();
  void ApplyState(int state);

  ServerNode* node_;
  DvfsConfig config_;
  int state_ = 0;
  bool applied_ = false;
  bool running_ = false;
  sim::EventId pending_ = 0;
  std::int64_t transitions_ = 0;
};

}  // namespace wimpy::hw

#endif  // WIMPY_HW_DVFS_H_
