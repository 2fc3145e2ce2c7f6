#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace stemroot {
namespace {

TEST(SplitMix64Test, KnownSequenceIsStable) {
  uint64_t state = 0;
  const uint64_t a = SplitMix64(state);
  const uint64_t b = SplitMix64(state);
  EXPECT_NE(a, b);
  // Re-running from the same seed reproduces the sequence.
  uint64_t state2 = 0;
  EXPECT_EQ(a, SplitMix64(state2));
  EXPECT_EQ(b, SplitMix64(state2));
}

TEST(DeriveSeedTest, DistinctStreamsDiffer) {
  std::set<uint64_t> seeds;
  for (uint64_t stream = 0; stream < 1000; ++stream)
    seeds.insert(DeriveSeed(42, stream));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(DeriveSeedTest, Deterministic) {
  EXPECT_EQ(DeriveSeed(7, 3), DeriveSeed(7, 3));
  EXPECT_NE(DeriveSeed(7, 3), DeriveSeed(8, 3));
}

TEST(HashStringTest, StableAndDiscriminating) {
  EXPECT_EQ(HashString("sgemm"), HashString("sgemm"));
  EXPECT_NE(HashString("sgemm"), HashString("sgemn"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoubleRangeRespected) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.NextDouble(-3.0, 7.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(RngTest, NextBoundedCoversRangeWithoutBias) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_GT(c, draws / 10 * 0.9);
    EXPECT_LT(c, draws / 10 * 1.1);
  }
}

TEST(RngTest, NextBoundedRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.NextBounded(0), std::invalid_argument);
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(RngTest, GaussianScaledMoments) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, LogNormalCenteredMeanIsOne) {
  // exp(N(-s^2/2, s)) has mean exactly 1 -- this is what keeps hardware
  // jitter unbiased.
  Rng rng(19);
  const double sigma = 0.2;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i)
    sum += rng.NextLogNormal(-0.5 * sigma * sigma, sigma);
  EXPECT_NEAR(sum / n, 1.0, 0.01);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.NextBool(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

}  // namespace
}  // namespace stemroot
