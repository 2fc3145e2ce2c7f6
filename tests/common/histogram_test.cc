#include "common/histogram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace stemroot {
namespace {

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);
  h.Add(9.5);
  h.Add(-5.0);   // clamps to first bin
  h.Add(100.0);  // clamps to last bin
  EXPECT_EQ(h.Count(0), 2u);
  EXPECT_EQ(h.Count(9), 2u);
  EXPECT_EQ(h.TotalCount(), 4u);
  EXPECT_DOUBLE_EQ(h.BinWidth(), 1.0);
  EXPECT_DOUBLE_EQ(h.BinCenter(0), 0.5);
}

TEST(HistogramTest, ConstructorValidation) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(HistogramTest, FromDataSpansInput) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  const Histogram h = Histogram::FromData(values, 4);
  EXPECT_EQ(h.TotalCount(), 4u);
  EXPECT_LT(h.Lo(), 1.0);
  EXPECT_GT(h.Hi(), 4.0);
  EXPECT_THROW(Histogram::FromData({}, 4), std::invalid_argument);
}

TEST(HistogramTest, FromDataConstantValues) {
  const std::vector<double> values = {5.0, 5.0, 5.0};
  const Histogram h = Histogram::FromData(values, 8);
  EXPECT_EQ(h.TotalCount(), 3u);
  EXPECT_EQ(h.CountPeaks(), 1u);
}

TEST(HistogramTest, SinglePeakDetected) {
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) values.push_back(rng.NextGaussian(50, 4));
  const Histogram h = Histogram::FromData(values, 40);
  EXPECT_EQ(h.CountPeaks(), 1u);
}

TEST(HistogramTest, ThreePeaksDetected) {
  // The bn_fw_inf shape from the paper's Fig. 1: three separated modes.
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) values.push_back(rng.NextGaussian(20, 1));
  for (int i = 0; i < 10000; ++i) values.push_back(rng.NextGaussian(50, 1.5));
  for (int i = 0; i < 10000; ++i) values.push_back(rng.NextGaussian(90, 2));
  const Histogram h = Histogram::FromData(values, 60);
  EXPECT_EQ(h.CountPeaks(), 3u);
}

TEST(HistogramTest, TwoClosePeaksMergeWithCoarseBins) {
  Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.NextGaussian(10, 2));
  for (int i = 0; i < 5000; ++i) values.push_back(rng.NextGaussian(14, 2));
  const Histogram coarse = Histogram::FromData(values, 6);
  EXPECT_EQ(coarse.CountPeaks(), 1u);
}

TEST(HistogramTest, RenderShowsBars) {
  Histogram h(0.0, 2.0, 2);
  h.Add(0.5);
  h.Add(0.6);
  h.Add(1.5);
  const std::string render = h.Render(10);
  EXPECT_NE(render.find('#'), std::string::npos);
  // Two rows -> two newlines.
  EXPECT_EQ(std::count(render.begin(), render.end(), '\n'), 2);
}

TEST(HistogramTest, EmptyHistogramHasNoPeaks) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_EQ(h.CountPeaks(), 0u);
}

TEST(LogHistogramTest, ConstructorValidation) {
  EXPECT_THROW(LogHistogram(1.0, 1.5, 2), std::invalid_argument);
  EXPECT_THROW(LogHistogram(0.0, 1.5, 10), std::invalid_argument);
  EXPECT_THROW(LogHistogram(-1.0, 1.5, 10), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 1.0, 10), std::invalid_argument);
  EXPECT_NO_THROW(LogHistogram(1.0, 1.5, 3));
}

TEST(LogHistogramTest, EmptyHistogramReportsZeros) {
  LogHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.0);
}

TEST(LogHistogramTest, SingleSampleDominatesEveryQuantile) {
  LogHistogram h;
  h.Record(42.0);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_DOUBLE_EQ(h.Max(), 42.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 42.0);
  // Every quantile lands in the one occupied bucket; its upper bound
  // must cover the sample and stay within one growth factor of it.
  for (double q : {0.0, 0.5, 0.9, 0.99}) {
    EXPECT_GE(h.Quantile(q), 42.0) << q;
    EXPECT_LE(h.Quantile(q), 42.0 * 1.5) << q;
  }
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 42.0);  // q >= 1 is the exact max
}

TEST(LogHistogramTest, AllSamplesInOneBucketShareTheQuantile) {
  LogHistogram h(1.0, 2.0, 10);
  // [8, 16) is one bucket under growth 2.
  for (double v : {8.0, 9.0, 10.0, 15.0, 15.9}) h.Record(v);
  EXPECT_EQ(h.Count(), 5u);
  const double p50 = h.Quantile(0.5);
  EXPECT_DOUBLE_EQ(p50, h.Quantile(0.01));
  EXPECT_DOUBLE_EQ(p50, h.Quantile(0.99));
  EXPECT_DOUBLE_EQ(p50, 16.0);  // the shared bucket's upper bound
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 15.9);
}

TEST(LogHistogramTest, UnderflowBucketCatchesSmallValues) {
  LogHistogram h(10.0, 2.0, 8);
  h.Record(0.0);
  h.Record(5.0);
  EXPECT_EQ(h.BinCount(0), 2u);
  // Underflow quantiles report the underflow bound (lo).
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0);
}

TEST(LogHistogramTest, OverflowBucketReportsExactMax) {
  LogHistogram h(1.0, 2.0, 4);  // buckets: <1, [1,2), [2,4), overflow >= 4
  h.Record(1e9);
  h.Record(5e9);
  EXPECT_EQ(h.BinCount(h.NumBins() - 1), 2u);
  // Overflow has no finite upper bound; quantiles degrade to the exact
  // max rather than reporting +inf.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 5e9);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 5e9);
  EXPECT_TRUE(std::isinf(h.BinUpperBound(h.NumBins() - 1)));
}

TEST(LogHistogramTest, DropsNonFiniteAndNegative) {
  LogHistogram h;
  h.Record(-1.0);
  h.Record(std::numeric_limits<double>::quiet_NaN());
  h.Record(std::numeric_limits<double>::infinity());
  h.Record(3.0);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.DroppedCount(), 3u);
  EXPECT_DOUBLE_EQ(h.Sum(), 3.0);
}

TEST(LogHistogramTest, QuantilesAreMonotoneOnRandomData) {
  LogHistogram h;
  Rng rng(7);
  for (int i = 0; i < 2000; ++i)
    h.Record(rng.NextDouble() * 1e5);
  // Bucket-bound quantiles are monotone in q; q == 1 is excluded because
  // it switches to the exact max, which a bucket bound may overshoot.
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double value = h.Quantile(q);
    EXPECT_GE(value, prev) << "q=" << q;
    prev = value;
  }
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), h.Max());
  EXPECT_LE(h.Quantile(1.0), 1e5);
  EXPECT_EQ(h.Count(), 2000u);
}

TEST(LogHistogramTest, BucketEdgesLandInTheRightBucket) {
  LogHistogram h(1.0, 2.0, 10);
  // A bound value belongs to the bucket above: 2.0 is the upper bound of
  // [1,2) and must land in [2,4).
  h.Record(2.0);
  uint64_t total = 0;
  for (size_t i = 0; i < h.NumBins(); ++i) {
    if (h.BinCount(i) > 0) {
      EXPECT_GT(h.BinUpperBound(i), 2.0);
      EXPECT_LE(h.BinUpperBound(i), 4.0);
    }
    total += h.BinCount(i);
  }
  EXPECT_EQ(total, 1u);
}

TEST(LogHistogramTest, ConcurrentRecordsAllLand) {
  LogHistogram h;
  std::vector<std::thread> threads;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.Record(static_cast<double>(t * kPerThread + i % 997) + 1.0);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads * kPerThread));
  uint64_t total = 0;
  for (size_t i = 0; i < h.NumBins(); ++i) total += h.BinCount(i);
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GT(h.Max(), 0.0);
  EXPECT_GT(h.Sum(), 0.0);
}

}  // namespace
}  // namespace stemroot
