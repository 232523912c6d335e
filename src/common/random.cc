#include "common/random.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace wimpy {

namespace {

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0,1) double.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::NextBelow(std::uint64_t n) {
  assert(n > 0);
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // may wrap to 0 for full range
  if (span == 0) return static_cast<std::int64_t>(Next());
  return lo + static_cast<std::int64_t>(NextBelow(span));
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Exponential(double rate) {
  assert(rate > 0);
  // Avoid log(0).
  double u = NextDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / rate;
}

double Rng::Normal(double mean, double stddev) {
  double u1 = NextDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::LogNormalMeanStd(double mean, double stddev) {
  assert(mean > 0);
  const double variance_ratio = (stddev * stddev) / (mean * mean);
  const double sigma2 = std::log(1.0 + variance_ratio);
  const double mu = std::log(mean) - 0.5 * sigma2;
  return std::exp(Normal(mu, std::sqrt(sigma2)));
}

Rng Rng::Fork() {
  Rng child(0);
  // Seed the child from four parent draws; keeps streams decorrelated.
  for (auto& s : child.s_) s = Next();
  // Guard against the (astronomically unlikely) all-zero state.
  bool all_zero = true;
  for (auto s : child.s_) all_zero = all_zero && s == 0;
  if (all_zero) child.s_[0] = 1;
  return child;
}

}  // namespace wimpy
