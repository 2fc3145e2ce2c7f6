#include "common/rng.h"

#include <cmath>
#include <stdexcept>

namespace stemroot {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t DeriveSeed(uint64_t parent, uint64_t stream) {
  uint64_t state = parent ^ (0xD1B54A32D192ED03ULL * (stream + 1));
  (void)SplitMix64(state);
  return SplitMix64(state);
}

uint64_t HashString(std::string_view s) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

Rng::Rng(uint64_t seed) {
  uint64_t state = seed;
  for (auto& word : s_) word = SplitMix64(state);
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

uint64_t Rng::NextBounded(uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::NextBounded: bound == 0");
  // Lemire's method: multiply-shift with rejection of the biased low range.
  uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    const uint64_t threshold = (~bound + 1) % bound;
    while (l < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextGaussian() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = NextDouble(-1.0, 1.0);
    v = NextDouble(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(NextGaussian(mu, sigma));
}

}  // namespace stemroot
