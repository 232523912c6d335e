#include "common/histogram.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"

namespace wimpy {

LinearHistogram::LinearHistogram(double lo, double hi,
                                 std::size_t num_buckets)
    : lo_(lo),
      width_((hi - lo) / static_cast<double>(num_buckets)),
      counts_(num_buckets, 0) {
  Check(hi > lo, "LinearHistogram", "hi must be > lo");
  Check(num_buckets > 0, "LinearHistogram", "num_buckets must be > 0");
}

void LinearHistogram::Add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  const auto idx = static_cast<std::size_t>((x - lo_) / width_);
  if (idx >= counts_.size()) {
    ++overflow_;
    return;
  }
  ++counts_[idx];
}

double LinearHistogram::BucketLow(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double LinearHistogram::BucketHigh(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

void LinearHistogram::Merge(const LinearHistogram& other) {
  // Per-replication histograms are merged into one distribution; a
  // different geometry would silently add counts into the wrong buckets.
  Check(lo_ == other.lo_, "LinearHistogram::Merge", "lo differs");
  Check(width_ == other.width_, "LinearHistogram::Merge",
        "bucket width differs");
  Check(counts_.size() == other.counts_.size(), "LinearHistogram::Merge",
        "bucket count differs");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

std::size_t LinearHistogram::ArgMaxBucket() const {
  const auto it = std::max_element(counts_.begin(), counts_.end());
  if (*it == 0) return counts_.size();  // all-empty: end sentinel
  return static_cast<std::size_t>(it - counts_.begin());
}

std::string LinearHistogram::ToAscii(std::size_t max_bar_width) const {
  bool any = false;
  std::size_t last_nonzero = 0;
  std::size_t max_count = 1;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] > 0) {
      any = true;
      last_nonzero = i;
    }
    max_count = std::max(max_count, counts_[i]);
  }
  std::string out;
  char buf[128];
  if (!any) out += "(no in-range samples)\n";
  for (std::size_t i = 0; any && i <= last_nonzero; ++i) {
    const std::size_t bar =
        counts_[i] * max_bar_width / max_count;
    std::snprintf(buf, sizeof(buf), "[%8.3f, %8.3f) %8zu | ", BucketLow(i),
                  BucketHigh(i), counts_[i]);
    out += buf;
    out.append(bar, '#');
    out += '\n';
  }
  if (overflow_ > 0) {
    std::snprintf(buf, sizeof(buf), "overflow: %zu\n", overflow_);
    out += buf;
  }
  return out;
}

}  // namespace wimpy
