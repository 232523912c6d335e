// Online statistics accumulators used by the metrics and reporting layers.
#ifndef WIMPY_COMMON_STATS_H_
#define WIMPY_COMMON_STATS_H_

#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "common/check.h"

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

// Exact-percentile reservoir: stores every sample and selects on demand.
// Samples are appended to fixed blocks of kBlockSize that never move, so
// growth copies nothing and leaves no freed doubling buffer resident, and
// a block is allocated once per 4096 samples, not per request.
// Percentile(q) selects the two order statistics it interpolates
// (std::nth_element in place over the blocks, then the minimum of the
// elements above) in O(n) rather than sorting; the result is
// bit-identical to sort-then-index. Memory is 8 B per sample (plus at
// most one partly filled block), the trade-off for exactness in
// paper-comparison reporting.
class PercentileTracker {
 public:
  // Aborts on NaN in every build: selection, like sorting, needs a strict
  // weak order, and one NaN would make every percentile undefined.
  void Add(double x) {
    Check(!std::isnan(x), "PercentileTracker::Add", "NaN sample");
    if ((count_ & kBlockMask) == 0) AddBlock();
    blocks_.back()[count_ & kBlockMask] = x;
    ++count_;
  }
  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  // q clamped to [0,1]; linear interpolation between order statistics.
  // Returns NaN when empty — never 0, which would vacuously pass SLO
  // gates. Call sites feeding bench JSON must check empty() explicitly.
  // Reorders the samples in place; the multiset never changes.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }

 private:
  class Iterator;  // random access over blocks_, for the selection

  static constexpr std::size_t kBlockShift = 12;
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;
  static constexpr std::size_t kBlockMask = kBlockSize - 1;

  void AddBlock();

  std::vector<std::unique_ptr<double[]>> blocks_;
  std::size_t count_ = 0;
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
