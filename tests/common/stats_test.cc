#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace stemroot {
namespace {

TEST(SummaryStatsTest, KnownValues) {
  const std::vector<double> values = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const SummaryStats s = SummaryStats::Of(values);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.variance, 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.Stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.Cov(), 0.4);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.sum, 40.0);
}

TEST(SummaryStatsTest, EmptyInputIsZeroed) {
  const SummaryStats s = SummaryStats::Of({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.Cov(), 0.0);
}

TEST(SummaryStatsTest, SingleValue) {
  const std::vector<double> one = {3.5};
  const SummaryStats s = SummaryStats::Of(one);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
}

TEST(StreamingStatsTest, MatchesBatch) {
  Rng rng(3);
  std::vector<double> values;
  StreamingStats stream;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.NextLogNormal(1.0, 0.7);
    values.push_back(v);
    stream.Add(v);
  }
  const SummaryStats batch = SummaryStats::Of(values);
  EXPECT_EQ(stream.Count(), batch.count);
  EXPECT_NEAR(stream.Mean(), batch.mean, 1e-9 * batch.mean);
  EXPECT_NEAR(stream.Variance(), batch.variance, 1e-6 * batch.variance);
  EXPECT_DOUBLE_EQ(stream.Min(), batch.min);
  EXPECT_DOUBLE_EQ(stream.Max(), batch.max);
}

TEST(StreamingStatsTest, MergeEqualsSinglePass) {
  Rng rng(5);
  StreamingStats whole, left, right;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.NextGaussian(5.0, 2.0);
    whole.Add(v);
    (i % 2 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.Count(), whole.Count());
  EXPECT_NEAR(left.Mean(), whole.Mean(), 1e-9);
  EXPECT_NEAR(left.Variance(), whole.Variance(), 1e-9);
}

TEST(StreamingStatsTest, MergeWithEmpty) {
  StreamingStats a, b;
  a.Add(1.0);
  a.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 2u);
  b.Merge(a);
  EXPECT_EQ(b.Count(), 2u);
  EXPECT_DOUBLE_EQ(b.Mean(), 2.0);
}

TEST(NormalTest, CdfKnownPoints) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-4);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-4);
}

TEST(NormalTest, QuantileInvertsCdf) {
  for (double p : {0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999}) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-8) << "p=" << p;
  }
}

TEST(NormalTest, QuantileRejectsBadInput) {
  EXPECT_THROW(NormalQuantile(0.0), std::invalid_argument);
  EXPECT_THROW(NormalQuantile(1.0), std::invalid_argument);
  EXPECT_THROW(NormalQuantile(-0.5), std::invalid_argument);
}

TEST(ZScoreTest, PaperValue95Percent) {
  // The paper uses z = 1.96 at the 95% confidence level.
  EXPECT_NEAR(ZScore(0.95), 1.959964, 1e-5);
  EXPECT_NEAR(ZScore(0.99), 2.575829, 1e-5);
  EXPECT_THROW(ZScore(1.0), std::invalid_argument);
}

TEST(PercentileTest, InterpolatesLinearly) {
  const std::vector<double> values = {4.0, 1.0, 3.0, 2.0};  // unsorted
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 50.0), 2.5);
  EXPECT_THROW(Percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(Percentile(values, 101.0), std::invalid_argument);
}

TEST(MeansTest, HarmonicAndGeometric) {
  const std::vector<double> values = {1.0, 4.0, 4.0};
  EXPECT_NEAR(HarmonicMean(values), 3.0 / (1.0 + 0.25 + 0.25), 1e-12);
  EXPECT_DOUBLE_EQ(Mean(values), 3.0);
  const std::vector<double> with_zero = {1.0, 0.0};
  EXPECT_THROW(HarmonicMean(with_zero), std::invalid_argument);
}

TEST(MeansTest, HarmonicDominatedBySlowest) {
  // Harmonic-mean speedup (the paper's convention) punishes outlier-slow
  // workloads; it is always <= the arithmetic mean.
  const std::vector<double> speedups = {100.0, 100.0, 2.0};
  EXPECT_LT(HarmonicMean(speedups), Mean(speedups));
  EXPECT_LT(HarmonicMean(speedups), 6.0);
}

TEST(MadTest, RobustToOutliers) {
  const std::vector<double> clean = {10, 11, 9, 10, 12, 8, 10};
  const std::vector<double> dirty = {10, 11, 9, 10, 12, 8, 1000};
  EXPECT_NEAR(Mad(clean), Mad(dirty), 0.8);
  EXPECT_THROW(Mad({}), std::invalid_argument);
}

}  // namespace
}  // namespace stemroot
