// Online statistics accumulators used by the metrics and reporting layers.
#ifndef WIMPY_COMMON_STATS_H_
#define WIMPY_COMMON_STATS_H_

#include <cstddef>
#include <limits>
#include <vector>

namespace wimpy {

// Streaming mean/min/max. O(1) memory.
class OnlineStats {
 public:
  void Add(double x);
  void Merge(const OnlineStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return count_ == 0 ? 0.0 : mean_ * count_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Exact-percentile reservoir: stores all samples and sorts on demand.
// Fine for the sample counts this library produces per experiment (<=1e7);
// memory is the trade-off for exactness in paper-comparison reporting.
class PercentileTracker {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // q clamped to [0,1]; linear interpolation between order statistics.
  // Returns NaN when empty — never 0, which would vacuously pass SLO
  // gates. Call sites feeding bench JSON must check empty() explicitly.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// Time-weighted average of a piecewise-constant signal, e.g. CPU utilisation
// or power. Feed (time, value) change-points; the value holds until the next
// change-point.
class TimeWeightedAverage {
 public:
  // Record that the signal takes `value` starting at time `t` (seconds).
  // Times must be non-decreasing.
  void Set(double t, double value);

  // Integral of the signal over [start, t]; e.g. joules when the signal is
  // watts. `t` must be >= the last Set() time.
  double IntegralUntil(double t) const;

  // Average value over [start, t]. Returns current value if no time elapsed.
  double AverageUntil(double t) const;

  double current() const { return value_; }
  bool has_samples() const { return has_start_; }

 private:
  bool has_start_ = false;
  double start_time_ = 0.0;
  double last_time_ = 0.0;
  double value_ = 0.0;
  double integral_ = 0.0;  // up to last_time_
};

}  // namespace wimpy

#endif  // WIMPY_COMMON_STATS_H_
