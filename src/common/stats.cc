#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <compare>
#include <cstddef>
#include <iterator>

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

// Sample i lives at blocks_[i >> kBlockShift][i & kBlockMask]; comparing
// and stepping iterators is comparing and stepping i.
class PercentileTracker::Iterator {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = double;
  using difference_type = std::ptrdiff_t;
  using pointer = double*;
  using reference = double&;

  Iterator() = default;
  Iterator(const std::unique_ptr<double[]>* blocks, std::size_t i)
      : blocks_(blocks), i_(static_cast<difference_type>(i)) {}

  double& operator*() const {
    const auto i = static_cast<std::size_t>(i_);
    return blocks_[i >> kBlockShift][i & kBlockMask];
  }
  double& operator[](difference_type n) const { return *(*this + n); }

  Iterator& operator++() { ++i_; return *this; }
  Iterator& operator--() { --i_; return *this; }
  Iterator operator++(int) { Iterator old = *this; ++i_; return old; }
  Iterator operator--(int) { Iterator old = *this; --i_; return old; }
  Iterator& operator+=(difference_type n) { i_ += n; return *this; }
  Iterator& operator-=(difference_type n) { i_ -= n; return *this; }
  friend Iterator operator+(Iterator it, difference_type n) { return it += n; }
  friend Iterator operator+(difference_type n, Iterator it) { return it += n; }
  friend Iterator operator-(Iterator it, difference_type n) { return it -= n; }
  friend difference_type operator-(const Iterator& a, const Iterator& b) {
    return a.i_ - b.i_;
  }
  friend bool operator==(const Iterator& a, const Iterator& b) {
    return a.i_ == b.i_;
  }
  friend auto operator<=>(const Iterator& a, const Iterator& b) {
    return a.i_ <=> b.i_;
  }

 private:
  const std::unique_ptr<double[]>* blocks_ = nullptr;
  difference_type i_ = 0;
};

void PercentileTracker::AddBlock() {
  blocks_.push_back(std::make_unique_for_overwrite<double[]>(kBlockSize));
}

double PercentileTracker::Percentile(double q) const {
  // NaN, not 0: a zero p99 from an empty tracker would vacuously pass any
  // SLO gate. Callers that feed bench JSON must check empty() first.
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(count_ - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  // After nth_element, [lo] holds the lo-th order statistic and every
  // element after it is >= it, so the (lo+1)-th is their minimum.
  const Iterator begin(blocks_.data(), 0);
  const Iterator end(blocks_.data(), count_);
  const Iterator lo_it = begin + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(begin, lo_it, end);
  const double v_lo = *lo_it;
  const double v_hi = lo + 1 < count_ ? *std::min_element(lo_it + 1, end)
                                      : v_lo;
  return v_lo * (1.0 - frac) + v_hi * frac;
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
