#include "hw/dvfs.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wimpy::hw {

namespace {
// The ondemand governor's sampling period and thresholds.
constexpr Duration kSamplePeriod = Milliseconds(100);
// Utilisation that forces the top state.
constexpr double kUpThreshold = 0.80;
// Below this utilisation, step one state slower.
constexpr double kDownThreshold = 0.30;
}  // namespace

DvfsConfig DefaultDvfsConfig(GovernorPolicy policy) {
  DvfsConfig config;
  config.policy = policy;
  for (double f : {1.0, 0.85, 0.70, 0.55, 0.40}) {
    // V roughly tracks f down to a floor; dynamic power ~ V^2 f.
    const double scale = std::max(0.25, f * f * f);
    config.pstates.push_back(PState{f, scale});
  }
  return config;
}

DvfsGovernor::DvfsGovernor(ServerNode* node, DvfsConfig config)
    : node_(node), config_(std::move(config)) {
  assert(!config_.pstates.empty());
}

DvfsGovernor::~DvfsGovernor() { Stop(); }

void DvfsGovernor::Start() {
  if (running_) return;
  running_ = true;
  switch (config_.policy) {
    case GovernorPolicy::kPerformance:
      ApplyState(0);
      return;  // pinned; no sampling needed
    case GovernorPolicy::kPowersave:
      ApplyState(static_cast<int>(config_.pstates.size()) - 1);
      return;
    case GovernorPolicy::kOndemand:
      Sample();
      return;
  }
}

void DvfsGovernor::Stop() {
  running_ = false;
  if (pending_ != 0) {
    node_->scheduler().Cancel(pending_);
    pending_ = 0;
  }
}

void DvfsGovernor::ApplyState(int state) {
  state = std::clamp(state, 0,
                     static_cast<int>(config_.pstates.size()) - 1);
  if (applied_ && state == state_) return;
  if (applied_ && state != state_) ++transitions_;
  applied_ = true;
  state_ = state;
  const PState& p = config_.pstates[static_cast<std::size_t>(state)];
  const CpuSpec& spec = node_->cpu().spec();
  node_->cpu().server().SetRates(spec.total_dmips() * p.frequency_scale,
                                 spec.dmips_per_thread * p.frequency_scale);
  node_->power().SetCpuDynamicScale(p.dynamic_power_scale);
}

void DvfsGovernor::Sample() {
  pending_ = 0;
  if (!running_) return;
  const double util = node_->cpu().busy_fraction();
  if (util >= kUpThreshold) {
    // Race to idle: jump straight to the top state.
    ApplyState(0);
  } else if (util < kDownThreshold) {
    ApplyState(state_ + 1);
  }
  pending_ = node_->scheduler().ScheduleAfter(kSamplePeriod,
                                              [this] { Sample(); });
}

}  // namespace wimpy::hw
