// Histograms for latency-distribution reporting (paper Figures 10 & 11).
#ifndef WIMPY_COMMON_HISTOGRAM_H_
#define WIMPY_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <string>
#include <vector>

namespace wimpy {

// Fixed-width linear-bucket histogram over [lo, hi); one overflow and one
// underflow bucket. Matches the paper's delay-distribution plots which use
// linear seconds on the x axis.
class LinearHistogram {
 public:
  // Requires hi > lo and num_buckets > 0 (checked in every build type).
  LinearHistogram(double lo, double hi, std::size_t num_buckets);

  void Add(double x);

  // Adds another histogram's counts into this one. Both must have been
  // constructed with identical (lo, hi, num_buckets), checked in every
  // build type; sweeps use this to aggregate per-replication histograms
  // into one distribution.
  void Merge(const LinearHistogram& other);

  std::size_t bucket_count() const { return counts_.size(); }
  // Lower edge of bucket i.
  double BucketLow(std::size_t i) const;
  double BucketHigh(std::size_t i) const;
  std::size_t BucketValue(std::size_t i) const { return counts_[i]; }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t total() const { return total_; }

  // Index of the bucket with the largest count (first on ties). Returns
  // bucket_count() — an end sentinel — when every bucket is empty, so an
  // all-zero histogram is never mistaken for one peaking in bucket 0.
  std::size_t ArgMaxBucket() const;

  // Multi-line ASCII rendering: one row per bucket with a '#' bar, e.g.
  //   [0.00, 0.25)  412 | ##########
  // Rows after the last non-empty bucket are omitted; a histogram with no
  // in-range samples renders no bucket rows at all (a note when empty).
  std::string ToAscii(std::size_t max_bar_width = 50) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace wimpy

#endif  // WIMPY_COMMON_HISTOGRAM_H_
