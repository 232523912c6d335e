// Deterministic random-number generation for reproducible simulations.
//
// Every stochastic component of the simulator draws from an explicitly
// seeded `Rng`. Experiments construct one root Rng and `Fork()` independent
// child streams per component so that adding a component never perturbs the
// draws seen by another (a classic simulation-reproducibility pitfall).
#ifndef WIMPY_COMMON_RANDOM_H_
#define WIMPY_COMMON_RANDOM_H_

#include <cstdint>

namespace wimpy {

// xoshiro256** with a splitmix64 seeder. Small, fast, high quality; we avoid
// std::mt19937 so that streams are cheap to fork and identical across
// standard libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  // Uniform 64-bit draw.
  std::uint64_t Next();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [0, n). Requires n > 0.
  std::uint64_t NextBelow(std::uint64_t n);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Bernoulli trial with probability p of true.
  bool Bernoulli(double p);

  // Exponential with given rate (mean 1/rate). Requires rate > 0.
  double Exponential(double rate);

  // Normal via Box-Muller.
  double Normal(double mean, double stddev);

  // Log-normal parameterised by the mean/stddev of the *resulting*
  // distribution (not of the underlying normal); convenient for latency
  // models specified by measured mean and spread.
  double LogNormalMeanStd(double mean, double stddev);

  // Derives an independent child stream. Deterministic: forking the same
  // parent state twice yields different children (parent advances), but the
  // whole tree is a pure function of the root seed.
  Rng Fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace wimpy

#endif  // WIMPY_COMMON_RANDOM_H_
