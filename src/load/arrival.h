// Open-loop arrival-time generation (docs/openloop.md).
//
// An `ArrivalProcess` produces the interarrival gaps of an open-loop load
// generator: requests are admitted on the simulated clock at times that do
// not depend on when earlier requests complete. Two models:
//
//   * kPoisson — memoryless arrivals at a fixed mean rate. Draws exactly
//     one Exponential per gap, so experiments that previously called
//     `rng.Exponential(rate)` inline can route through an ArrivalProcess
//     without perturbing their random streams (golden traces stay valid).
//   * kMmpp — a 2-state Markov-modulated Poisson process (calm/burst).
//     The burst state runs `burstiness`x hotter than the calm state while
//     the time-averaged rate stays exactly `rate`, so sweeping burstiness
//     changes tail pressure without changing offered load.
#ifndef WIMPY_LOAD_ARRIVAL_H_
#define WIMPY_LOAD_ARRIVAL_H_

#include "common/random.h"
#include "common/units.h"

namespace wimpy::load {

enum class ArrivalModel { kPoisson, kMmpp };

struct ArrivalConfig {
  ArrivalModel model = ArrivalModel::kPoisson;
  // Time-averaged arrival rate (requests per simulated second). Must be > 0.
  double rate = 1000.0;
  // kMmpp only: burst-state rate as a multiple of the calm-state rate.
  // 1.0 degenerates to Poisson (but still uses the two-state draw pattern;
  // use kPoisson for stream-compatibility with legacy experiments).
  double burstiness = 8.0;
  // kMmpp only: long-run fraction of time spent in the burst state (0,1).
  double burst_fraction = 0.2;
  // kMmpp only: mean calm+burst cycle length; dwell times are exponential
  // with means burst_fraction*cycle and (1-burst_fraction)*cycle.
  Duration cycle = Seconds(0.5);
};

class ArrivalProcess {
 public:
  explicit ArrivalProcess(const ArrivalConfig& config);

  // Gap from the previous arrival (or from process start) to the next
  // one. Advances the modulating chain for kMmpp.
  Duration NextGap(Rng& rng);

  bool in_burst() const { return in_burst_; }

  const ArrivalConfig& config() const { return config_; }

 private:
  ArrivalConfig config_;
  double calm_rate_ = 0;    // kMmpp state rates, normalised so the
  double burst_rate_ = 0;   // time-averaged rate equals config.rate
  double calm_exit_ = 0;    // state-switch hazard rates (1/mean dwell)
  double burst_exit_ = 0;
  bool in_burst_ = false;
};

}  // namespace wimpy::load

#endif  // WIMPY_LOAD_ARRIVAL_H_
