/// \file
/// Deterministic pseudo-random number generation for reproducible
/// experiments.
///
/// Every stochastic component in the library (workload generators, the
/// hardware jitter model, sampling with replacement) draws from an Rng that
/// is seeded explicitly, so a whole experiment is reproducible bit-for-bit
/// from a single top-level seed. We implement xoshiro256** (Blackman &
/// Vigna), which is small, fast, and has far better statistical quality than
/// std::minstd/rand while avoiding the platform-dependence of
/// std::mt19937's distribution implementations.

#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace stemroot {

/// SplitMix64 step; used to expand a 64-bit seed into xoshiro state and as a
/// cheap standalone mixer for deriving per-object seeds.
uint64_t SplitMix64(uint64_t& state);

/// Derive a child seed from a parent seed and a stream identifier. Used so
/// that e.g. every kernel invocation gets an independent, stable stream.
uint64_t DeriveSeed(uint64_t parent, uint64_t stream);

/// Hash a string into a 64-bit stream id (FNV-1a). Stable across platforms.
uint64_t HashString(std::string_view s);

/// xoshiro256** generator. Satisfies the essentials of
/// std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = uint64_t;

  /// Construct from a 64-bit seed; state is expanded via SplitMix64 so that
  /// nearby seeds yield uncorrelated streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit value. The three hot draws (this, NextDouble() and
  /// NextBool()) are defined inline below: the simulator makes hundreds of
  /// millions of them per sweep.
  uint64_t operator()();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection
  /// method to avoid modulo bias. bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Standard normal deviate (Marsaglia polar method; cached spare).
  double NextGaussian();

  /// Normal deviate with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Log-normal deviate parameterised by the mean/stddev of the underlying
  /// normal (i.e. exp(N(mu, sigma))).
  double NextLogNormal(double mu, double sigma);

  /// Bernoulli draw with probability p of returning true.
  bool NextBool(double p);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<uint64_t, 4> s_;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

inline uint64_t Rng::operator()() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

inline double Rng::NextDouble() {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

inline bool Rng::NextBool(double p) { return NextDouble() < p; }

}  // namespace stemroot
