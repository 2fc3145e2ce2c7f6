#include "core/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "common/rng.h"

namespace stemroot::core {
namespace {

TEST(Kmeans1DTest, SeparatesTwoModes) {
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.NextGaussian(10, 1));
  for (int i = 0; i < 500; ++i) values.push_back(rng.NextGaussian(100, 5));
  const KmeansResult result = Kmeans1D(values, 2);

  // Every point from mode A in one cluster, mode B in the other.
  const uint32_t cluster_a = result.assignment[0];
  for (int i = 0; i < 500; ++i)
    EXPECT_EQ(result.assignment[i], cluster_a);
  for (int i = 500; i < 1000; ++i)
    EXPECT_NE(result.assignment[i], cluster_a);

  std::vector<double> centers = result.centers;
  std::sort(centers.begin(), centers.end());
  EXPECT_NEAR(centers[0], 10.0, 1.0);
  EXPECT_NEAR(centers[1], 100.0, 2.0);
}

TEST(Kmeans1DTest, ThreeModesWithKThree) {
  Rng rng(7);
  std::vector<double> values;
  for (double mode : {20.0, 50.0, 90.0})
    for (int i = 0; i < 300; ++i)
      values.push_back(rng.NextGaussian(mode, 1.5));
  const KmeansResult result = Kmeans1D(values, 3);
  std::vector<double> centers = result.centers;
  std::sort(centers.begin(), centers.end());
  EXPECT_NEAR(centers[0], 20.0, 2.0);
  EXPECT_NEAR(centers[1], 50.0, 2.0);
  EXPECT_NEAR(centers[2], 90.0, 2.0);
}

TEST(Kmeans1DTest, DeterministicWithoutRng) {
  Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.NextDouble(0, 100));
  const KmeansResult a = Kmeans1D(values, 4);
  const KmeansResult b = Kmeans1D(values, 4);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.centers, b.centers);
}

TEST(Kmeans1DTest, InertiaDecreasesWithK) {
  Rng rng(13);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.NextDouble(0, 100));
  double prev = Kmeans1D(values, 1).inertia;
  for (uint32_t k = 2; k <= 5; ++k) {
    const double inertia = Kmeans1D(values, k).inertia;
    EXPECT_LE(inertia, prev * 1.0001);
    prev = inertia;
  }
}

TEST(Kmeans1DTest, KOneIsTheMean) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 6.0};
  const KmeansResult result = Kmeans1D(values, 1);
  EXPECT_DOUBLE_EQ(result.centers[0], 3.0);
  for (uint32_t a : result.assignment) EXPECT_EQ(a, 0u);
}

TEST(Kmeans1DTest, ConstantDataHandled) {
  const std::vector<double> values(100, 5.0);
  const KmeansResult result = Kmeans1D(values, 2);
  // All points land in one cluster; no crash, assignments valid.
  for (uint32_t a : result.assignment) EXPECT_LT(a, 2u);
}

TEST(Kmeans1DTest, Validation) {
  const std::vector<double> values = {1.0};
  EXPECT_THROW(Kmeans1D(values, 0), std::invalid_argument);
  EXPECT_THROW(Kmeans1D({}, 2), std::invalid_argument);
}

/// The full-sort quantile seeding Kmeans1D used before it switched to
/// nth_element, with the unchanged Lloyd loop: the reference the
/// production result must match bit for bit.
KmeansResult SortSeededKmeans1D(const std::vector<double>& values,
                                uint32_t k) {
  const size_t n = values.size();
  KmeansResult result;
  result.k = k;
  result.assignment.assign(n, 0);
  result.centers.resize(k);
  std::vector<double> sorted(values);
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t c = 0; c < k; ++c) {
    const double q = (c + 0.5) / static_cast<double>(k);
    result.centers[c] =
        sorted[std::min(n - 1, static_cast<size_t>(q * static_cast<double>(n)))];
  }
  std::vector<double> sums(k);
  std::vector<uint64_t> counts(k);
  for (uint32_t iter = 0; iter < 50; ++iter) {
    bool moved = false;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      uint32_t best = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (uint32_t c = 0; c < k; ++c) {
        const double d = std::abs(values[i] - result.centers[c]);
        if (d < best_dist) {
          best_dist = d;
          best = c;
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        moved = true;
      }
      sums[best] += values[i];
      ++counts[best];
    }
    for (uint32_t c = 0; c < k; ++c) {
      if (counts[c] > 0) {
        result.centers[c] = sums[c] / static_cast<double>(counts[c]);
        continue;
      }
      size_t far_idx = 0;
      double far_dist = -1.0;
      for (size_t i = 0; i < n; ++i) {
        const double d =
            std::abs(values[i] - result.centers[result.assignment[i]]);
        if (d > far_dist) {
          far_dist = d;
          far_idx = i;
        }
      }
      result.centers[c] = values[far_idx];
      moved = true;
    }
    if (!moved && iter > 0) break;
  }
  for (size_t i = 0; i < n; ++i) {
    const double d = values[i] - result.centers[result.assignment[i]];
    result.inertia += d * d;
  }
  return result;
}

void ExpectBitIdentical(const KmeansResult& got, const KmeansResult& want,
                        const std::string& where) {
  EXPECT_EQ(got.assignment, want.assignment) << where;
  ASSERT_EQ(got.centers.size(), want.centers.size()) << where;
  EXPECT_EQ(std::memcmp(got.centers.data(), want.centers.data(),
                        got.centers.size() * sizeof(double)),
            0)
      << where;
  EXPECT_EQ(std::memcmp(&got.inertia, &want.inertia, sizeof(double)), 0)
      << where;
}

TEST(Kmeans1DTest, SelectionSeedingMatchesFullSortSeeding) {
  Rng rng(23);
  std::map<std::string, std::vector<double>> inputs;
  for (int i = 0; i < 400; ++i)  // few distinct values, many duplicates
    inputs["duplicates"].push_back(static_cast<double>(rng.NextBounded(5)));
  inputs["all_equal"] = std::vector<double>(64, 7.25);
  inputs["single"] = {3.0};
  inputs["two"] = {9.0, 1.0};
  inputs["three_descending"] = {5.0, 4.0, 3.0};
  for (int i = 0; i < 2000; ++i)  // heavy tail: log-normal, sigma 2
    inputs["heavy_tail"].push_back(rng.NextLogNormal(2.0, 2.0));
  for (int i = 0; i < 1000; ++i)  // bimodal with exact ties at the modes
    inputs["bimodal_ties"].push_back(i % 3 == 0 ? 100.0 : 10.0);
  for (int i = 0; i < 777; ++i)
    inputs["uniform_odd_n"].push_back(rng.NextDouble(0, 1));

  for (const auto& [name, values] : inputs) {
    for (const uint32_t k : {1u, 2u, 3u, 5u, 8u}) {
      const std::string where = name + " k=" + std::to_string(k);
      ExpectBitIdentical(Kmeans1D(values, k), SortSeededKmeans1D(values, k),
                         where);
    }
  }
}

TEST(KmeansNdTest, SeparatesBlobs) {
  Rng rng(17);
  std::vector<double> points;  // 2-D
  for (int i = 0; i < 300; ++i) {
    points.push_back(rng.NextGaussian(0, 1));
    points.push_back(rng.NextGaussian(0, 1));
  }
  for (int i = 0; i < 300; ++i) {
    points.push_back(rng.NextGaussian(20, 1));
    points.push_back(rng.NextGaussian(20, 1));
  }
  const KmeansResult result = KmeansNd(points, 2, 2);
  const uint32_t first = result.assignment[0];
  for (int i = 0; i < 300; ++i) EXPECT_EQ(result.assignment[i], first);
  for (int i = 300; i < 600; ++i) EXPECT_NE(result.assignment[i], first);
}

TEST(KmeansNdTest, InertiaZeroWhenKEqualsDistinctPoints) {
  // 3 distinct points, k = 3 -> every point is its own center.
  const std::vector<double> points = {0.0, 0.0, 10.0, 0.0, 0.0, 10.0};
  const KmeansResult result = KmeansNd(points, 2, 3);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KmeansNdTest, Validation) {
  const std::vector<double> points = {1.0, 2.0, 3.0};
  EXPECT_THROW(KmeansNd(points, 2, 2), std::invalid_argument);  // 3 % 2 != 0
  EXPECT_THROW(KmeansNd(points, 0, 2), std::invalid_argument);
  EXPECT_THROW(KmeansNd(points, 3, 0), std::invalid_argument);
  EXPECT_THROW(KmeansNd({}, 2, 2), std::invalid_argument);
}

/// Property: assignments always index a real cluster and every cluster
/// center equals the mean of its assigned points after convergence.
class KmeansPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(KmeansPropertyTest, CentersAreClusterMeans) {
  Rng rng(DeriveSeed(7, static_cast<uint64_t>(GetParam())));
  std::vector<double> values;
  const size_t n = 50 + rng.NextBounded(500);
  for (size_t i = 0; i < n; ++i)
    values.push_back(rng.NextLogNormal(3.0, 1.0));
  const uint32_t k = 2 + static_cast<uint32_t>(rng.NextBounded(4));
  const KmeansResult result = Kmeans1D(values, k, 200);

  std::vector<double> sums(k, 0.0);
  std::vector<size_t> counts(k, 0);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_LT(result.assignment[i], k);
    sums[result.assignment[i]] += values[i];
    ++counts[result.assignment[i]];
  }
  for (uint32_t c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;
    EXPECT_NEAR(result.centers[c], sums[c] / static_cast<double>(counts[c]),
                1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomData, KmeansPropertyTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace stemroot::core
