#include "obs/sketch.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace wimpy::obs {

namespace {
constexpr double kDomainMin = 0x1p-30;  // 2^(kMinExp - 1)
constexpr double kDomainMax = 0x1p20;   // 2^kMaxExp
}  // namespace

HdrSketch::HdrSketch() : counts_(kBucketCount, 0) {}

int HdrSketch::BucketIndex(double value) {
  if (!(value >= kDomainMin)) return 0;  // <=0, subnormal-small, NaN
  if (value >= kDomainMax) return kBucketCount - 1;  // includes +inf
  int exp = 0;
  const double mantissa = std::frexp(value, &exp);  // value = m * 2^exp
  int sub = static_cast<int>((mantissa * 2.0 - 1.0) * kSubBuckets);
  if (sub < 0) sub = 0;
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return 1 + (exp - kMinExp) * kSubBuckets + sub;
}

double HdrSketch::BucketLower(int index) {
  assert(index >= 0 && index < kBucketCount);
  if (index == 0) return 0.0;
  if (index == kBucketCount - 1) return kDomainMax;
  const int k = index - 1;
  const int exp = kMinExp + k / kSubBuckets;
  const double base = std::ldexp(1.0, exp - 1);  // octave start 2^(exp-1)
  const double width = base / kSubBuckets;
  return base + (k % kSubBuckets) * width;
}

double HdrSketch::BucketUpper(int index) {
  assert(index >= 0 && index < kBucketCount);
  if (index == 0) return kDomainMin;
  if (index == kBucketCount - 1) return 2.0 * kDomainMax;
  const int k = index - 1;
  const int exp = kMinExp + k / kSubBuckets;
  const double base = std::ldexp(1.0, exp - 1);
  const double width = base / kSubBuckets;
  return base + (k % kSubBuckets + 1) * width;
}

void HdrSketch::Record(double value) {
  ++counts_[BucketIndex(value)];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  ++count_;
  sum_ += value;
}

void HdrSketch::Merge(const HdrSketch& other) {
  if (other.count_ == 0) return;
  for (int i = 0; i < kBucketCount; ++i) counts_[i] += other.counts_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void HdrSketch::AddBucketCount(int index, std::uint64_t n) {
  // Sketches are rebuilt from exported CSV rows: outside input.
  Check(index >= 0 && index < kBucketCount, "obs::HdrSketch",
        "bucket index out of range");
  if (n == 0) return;
  counts_[index] += n;
  const double mid = 0.5 * (BucketLower(index) + BucketUpper(index));
  if (count_ == 0) {
    min_ = mid;
    max_ = mid;
  } else {
    if (mid < min_) min_ = mid;
    if (mid > max_) max_ = mid;
  }
  count_ += n;
  sum_ += static_cast<double>(n) * mid;
}

double HdrSketch::Quantile(double q) const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double need = q * static_cast<double>(count_);
  double cum = 0.0;
  for (int i = 0; i < kBucketCount; ++i) {
    if (counts_[i] == 0) continue;
    cum += static_cast<double>(counts_[i]);
    if (cum >= need) {
      double mid = 0.5 * (BucketLower(i) + BucketUpper(i));
      if (mid < min_) mid = min_;
      if (mid > max_) mid = max_;
      return mid;
    }
  }
  return max_;  // q == 1 with fp round-off
}

double HdrSketch::min() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
}

double HdrSketch::max() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

void HdrSketch::Reset() {
  counts_.assign(kBucketCount, 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

// Sum is deliberately excluded: it is order-sensitive floating-point
// accumulation, so merge-of-shards and whole-stream agree on ranks and
// extremes (everything quantiles depend on) but may differ in sum's
// last ulp.
bool HdrSketch::operator==(const HdrSketch& other) const {
  if (count_ != other.count_) return false;
  if (count_ != 0 && (min_ != other.min_ || max_ != other.max_))
    return false;
  return counts_ == other.counts_;
}

}  // namespace wimpy::obs
