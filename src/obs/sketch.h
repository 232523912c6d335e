// Mergeable log-bucketed quantile sketch (docs/telemetry.md).
//
// `HdrSketch` is an HdrHistogram-style fixed-geometry sketch: the value
// domain [2^-30, 2^20) is split into octaves (one per binary exponent)
// and each octave into `kSubBuckets` equal-width linear sub-buckets, so
// the relative bucket width is bounded by 1/kSubBuckets (~3.1%)
// everywhere. The geometry is a compile-time constant — every sketch in
// the process has the same buckets — which makes `Merge` exact: merging
// shard sketches is element-wise count addition and yields bit-identical
// state to recording the concatenated stream.
//
// `Record` is allocation-free (the count array is sized at
// construction) and O(1): a frexp, a multiply, and two increments.
// Quantiles are answered by a rank walk returning the bucket midpoint,
// clamped to the exact min/max tracked alongside the counts, so the
// error is at most one bucket width.
//
// Values below the domain (including <= 0) land in the underflow
// bucket, values at or above 2^20 in the overflow bucket; both merge
// and rank like any other bucket.
#ifndef WIMPY_OBS_SKETCH_H_
#define WIMPY_OBS_SKETCH_H_

#include <cstdint>
#include <vector>

namespace wimpy::obs {

class HdrSketch {
 public:
  // Geometry: exponents kMinExp..kMaxExp (frexp convention: value v has
  // exponent e when v in [2^(e-1), 2^e)), kSubBuckets linear sub-buckets
  // per octave, plus underflow (index 0) and overflow (last index).
  static constexpr int kMinExp = -29;   // smallest octave: [2^-30, 2^-29)
  static constexpr int kMaxExp = 20;    // largest octave: [2^19, 2^20)
  static constexpr int kSubBuckets = 32;
  static constexpr int kOctaves = kMaxExp - kMinExp + 1;
  static constexpr int kBucketCount = kOctaves * kSubBuckets + 2;

  HdrSketch();

  // O(1), allocation-free.
  void Record(double value);

  // Maps a value to its bucket index (0 = underflow, kBucketCount-1 =
  // overflow). Exposed so tests and CSV recomputation can pin geometry.
  static int BucketIndex(double value);
  // Inclusive lower / exclusive upper value bound of a bucket. The
  // underflow bucket reports [0, 2^-30); the overflow bucket
  // [2^20, 2^21) purely for midpoint purposes.
  static double BucketLower(int index);
  static double BucketUpper(int index);

  // Element-wise count addition; exact (same fixed geometry everywhere).
  // min/max/sum/count fold in the obvious way.
  void Merge(const HdrSketch& other);

  // Adds `n` observations directly to bucket `index`, using the bucket
  // midpoint for sum and min/max. This is how a sketch is reconstructed
  // from exported `name.b<idx>` CSV rows; reconstruction then yields the
  // same quantiles as the live sketch. An index outside
  // [0, kBucketCount) aborts in every build type.
  void AddBucketCount(int index, std::uint64_t n);

  // Quantile in [0, 1] via rank walk; returns the bucket midpoint
  // clamped to [min, max]. NaN when empty.
  double Quantile(double q) const;

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const;  // NaN when empty
  double max() const;  // NaN when empty

  std::uint64_t bucket_count(int index) const { return counts_[index]; }

  // Calls fn(index, count) for every non-zero bucket in index order.
  template <typename Fn>
  void ForEachNonZero(Fn&& fn) const {
    for (int i = 0; i < kBucketCount; ++i) {
      if (counts_[i] != 0) fn(i, counts_[i]);
    }
  }

  // Drops all observations; keeps the allocation.
  void Reset();

  bool operator==(const HdrSketch& other) const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace wimpy::obs

#endif  // WIMPY_OBS_SKETCH_H_
