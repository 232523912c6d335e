#include "common/stats.h"

#include <algorithm>
#include <cassert>

namespace wimpy {

void OnlineStats::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double PercentileTracker::Percentile(double q) const {
  // NaN, not 0: a zero p99 from an empty tracker would vacuously pass any
  // SLO gate. Callers that feed bench JSON must check empty() first.
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void TimeWeightedAverage::Set(double t, double value) {
  if (!has_start_) {
    has_start_ = true;
    start_time_ = t;
    last_time_ = t;
    value_ = value;
    return;
  }
  assert(t >= last_time_);
  integral_ += value_ * (t - last_time_);
  last_time_ = t;
  value_ = value;
}

double TimeWeightedAverage::IntegralUntil(double t) const {
  if (!has_start_) return 0.0;
  assert(t >= last_time_);
  return integral_ + value_ * (t - last_time_);
}

double TimeWeightedAverage::AverageUntil(double t) const {
  if (!has_start_) return 0.0;
  const double span = t - start_time_;
  if (span <= 0.0) return value_;
  return IntegralUntil(t) / span;
}

}  // namespace wimpy
