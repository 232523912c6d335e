#include "load/arrival.h"

#include "common/check.h"

namespace wimpy::load {

ArrivalProcess::ArrivalProcess(const ArrivalConfig& config)
    : config_(config) {
  // A non-positive rate draws negative gaps, which DriveOpenLoop clamps
  // to zero and then admits requests forever at one instant.
  const char* where = "load::ArrivalProcess";
  Check(config_.rate > 0.0, where, "rate must be > 0");
  if (config_.model == ArrivalModel::kMmpp) {
    Check(config_.burstiness >= 1.0, where, "burstiness must be >= 1");
    Check(config_.burst_fraction > 0.0 && config_.burst_fraction < 1.0, where,
          "burst_fraction must be in (0, 1)");
    Check(config_.cycle > 0.0, where, "cycle must be > 0");
    // Long-run average rate is (1-f)*calm + f*burst with burst = b*calm;
    // solve for calm so the average equals the configured rate.
    const double f = config_.burst_fraction;
    const double b = config_.burstiness;
    calm_rate_ = config_.rate / ((1.0 - f) + f * b);
    burst_rate_ = b * calm_rate_;
    // Exponential dwells: mean burst dwell f*cycle, calm dwell (1-f)*cycle,
    // which yields exactly the long-run burst occupancy f.
    burst_exit_ = 1.0 / (f * config_.cycle);
    calm_exit_ = 1.0 / ((1.0 - f) * config_.cycle);
  }
}

Duration ArrivalProcess::NextGap(Rng& rng) {
  if (config_.model == ArrivalModel::kPoisson) {
    // Exactly one draw — keeps legacy `rng.Exponential(rate)` loops
    // byte-identical when routed through an ArrivalProcess.
    return rng.Exponential(config_.rate);
  }
  // Competing exponentials: in the current state, the next event is either
  // an arrival (rate r) or a state switch (rate s). The total waiting time
  // is Exp(r+s); it is an arrival with probability r/(r+s). Both states
  // are memoryless, so gaps accumulate across switches with no residuals.
  Duration gap = 0.0;
  for (;;) {
    const double r = in_burst_ ? burst_rate_ : calm_rate_;
    const double s = in_burst_ ? burst_exit_ : calm_exit_;
    gap += rng.Exponential(r + s);
    if (rng.NextDouble() * (r + s) < r) return gap;
    in_burst_ = !in_burst_;
  }
}

}  // namespace wimpy::load
