#include "core/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "common/telemetry.h"

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

/// Kmeans1D's general Lloyd loop, verbatim minus telemetry, from the
/// given seed centers: the loop every k ran before the k = 2 step became
/// a blocked branch-free pass. The references below differ only in how
/// they seed it.
KmeansResult ReferenceLloyd(const std::vector<double>& values,
                            std::vector<double> centers,
                            uint32_t max_iters = 50) {
  const size_t n = values.size();
  const uint32_t k = static_cast<uint32_t>(centers.size());
  KmeansResult result;
  result.k = k;
  result.assignment.assign(n, 0);
  result.centers = std::move(centers);
  std::vector<double> sums(k);
  std::vector<uint64_t> counts(k);
  for (uint32_t iter = 0; iter < max_iters; ++iter) {
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

/// The full-sort quantile seeding Kmeans1D used before it switched to
/// nth_element, with the general Lloyd loop: the reference the
/// production result must match bit for bit.
KmeansResult SortSeededKmeans1D(const std::vector<double>& values,
                                uint32_t k) {
  const size_t n = values.size();
  std::vector<double> sorted(values);
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> centers(k);
  for (uint32_t c = 0; c < k; ++c) {
    const double q = (c + 0.5) / static_cast<double>(k);
    centers[c] =
        sorted[std::min(n - 1, static_cast<size_t>(q * static_cast<double>(n)))];
  }
  return ReferenceLloyd(values, std::move(centers));
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

/// Kmeans1D as it was before its k = 2 assignment step became a blocked
/// branch-free pass and its seeding an exact selection: nth_element
/// quantile seeding over a copy, verbatim, and the general Lloyd loop.
/// The production result must match it bit for bit at every k, NaN and
/// ±0 inputs included: on those, and on up to 4096 values, production
/// makes the same nth_element calls on the same data; elsewhere values
/// equal under `<` share a bit pattern, so any exact selection agrees.
KmeansResult ReferenceKmeans1D(const std::vector<double>& values, uint32_t k,
                               uint32_t max_iters = 50) {
  const size_t n = values.size();
  std::vector<double> centers(k);
  std::vector<double> order(values.begin(), values.end());
  size_t searched_from = 0;
  for (uint32_t c = 0; c < k; ++c) {
    const double q = (c + 0.5) / static_cast<double>(k);
    const size_t rank =
        std::min(n - 1, static_cast<size_t>(q * static_cast<double>(n)));
    if (rank >= searched_from) {
      std::nth_element(order.begin() + static_cast<ptrdiff_t>(searched_from),
                       order.begin() + static_cast<ptrdiff_t>(rank),
                       order.end());
      searched_from = rank + 1;
    }
    centers[c] = order[rank];
  }
  return ReferenceLloyd(values, std::move(centers), max_iters);
}

TEST(Kmeans1DTest, MatchesReferenceLloydLoopBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  Rng rng(29);
  std::map<std::string, std::vector<double>> inputs;
  for (int i = 0; i < 5000; ++i) {  // ROOT-shaped: body + ~0.6% far mode
    inputs["lognormal_far_mode"].push_back(
        rng.NextBounded(1000) < 6 ? rng.NextLogNormal(4.6, 0.05)
                                  : rng.NextLogNormal(3.0, 0.25));
  }
  for (int i = 0; i < 3000; ++i) {  // three overlapping modes
    const double mu = 1.0 + static_cast<double>(rng.NextBounded(3));
    inputs["lognormal_mixture"].push_back(rng.NextLogNormal(mu, 0.6));
  }
  for (int i = 0; i < 600; ++i)  // 2 and 6 with centers 2 and 6: 4 ties
    inputs["midpoint_ties"].push_back(i % 3 == 0 ? 4.0 : i % 3 == 1 ? 2.0
                                                                     : 6.0);
  inputs["midpoint_pair"] = {1.0, 3.0, 2.0, 2.0, 1.0, 3.0};
  for (int i = 0; i < 400; ++i)
    inputs["duplicates"].push_back(static_cast<double>(rng.NextBounded(4)));
  inputs["all_equal"] = std::vector<double>(100, 3.5);
  inputs["single"] = {7.0};  // n < k for every k >= 2: reseeding
  inputs["n_below_k"] = {4.0, 1.0, 9.0};
  inputs["signed_zeros"] = {-0.0, 0.0, -0.0, 1.0, -1.0, -0.0, 0.0, 2.0};
  inputs["only_negative_zero"] = std::vector<double>(9, -0.0);
  for (int i = 0; i < 200; ++i)
    inputs["subnormals"].push_back(kDenorm *
                                   static_cast<double>(rng.NextBounded(50)));
  inputs["subnormals"].push_back(-kDenorm);
  inputs["infinities"] = {1.0, kInf, 2.0, -kInf, 3.0, 4.0, kInf, 5.0};
  inputs["one_inf"] = {1.0, 2.0, 3.0, kInf, 2.5, 1.5};
  inputs["nan"] = {1.0, kNaN, 2.0, 3.0, 10.0, 11.0, 12.0, kNaN};
  inputs["nan_and_inf"] = {kNaN, kInf, 1.0, -kInf, 2.0, kNaN, 3.0};
  std::vector<double> noisy_nan;
  for (int i = 0; i < 500; ++i)
    noisy_nan.push_back(i % 97 == 5 ? kNaN : rng.NextLogNormal(2.0, 1.0));
  inputs["nan_sprinkled"] = noisy_nan;
  for (int i = 0; i < 5000; ++i)
    inputs["nan_sprinkled_5000"].push_back(
        i % 997 == 5 ? kNaN : rng.NextLogNormal(2.0, 1.0));
  // Over 4096 values, inputs without a NaN or a zero take the radix
  // selection path; the rest keep nth_element over a copy.
  for (int i = 0; i < 5000; ++i)
    inputs["negative"].push_back(-rng.NextLogNormal(3.0, 0.5));
  for (int i = 0; i < 6000; ++i) {
    const double magnitude = rng.NextLogNormal(1.0, 1.5);
    inputs["mixed_signs"].push_back(rng.NextBounded(3) == 0 ? -magnitude
                                                            : magnitude);
  }
  for (int i = 0; i < 5000; ++i) {
    inputs["infinities_no_nan"].push_back(
        i % 37 == 3 ? -kInf : i % 41 == 7 ? kInf : rng.NextDouble(-5, 9));
  }
  // A narrow body between 1e-300 and 1e300: the body shares one top-level
  // bucket, so the selection goes down further levels.
  for (int i = 0; i < 5000; ++i)
    inputs["span_1e300"].push_back(rng.NextLogNormal(3.0, 0.25));
  for (const double extreme : {1e-300, 1e-200, 1e200, 1e300, -1e300})
    inputs["span_1e300"].push_back(extreme);
  std::vector<double> positives;
  for (int i = 0; i < 5000; ++i)
    positives.push_back(rng.NextLogNormal(2.0, 1.0));
  inputs["positives_plus_zero"] = positives;
  inputs["positives_plus_zero"].push_back(0.0);
  inputs["positives_plus_negative_zero"] = positives;
  inputs["positives_plus_negative_zero"].insert(
      inputs["positives_plus_negative_zero"].begin() + 2500, -0.0);
  // +0.0 before -0.0: a key order would put every -0.0 first, where
  // nth_element picks as it partitions.
  for (int i = 0; i < 6000; ++i) {
    inputs["zero_blocks"].push_back(i < 2000   ? 0.0
                                    : i < 4000 ? -0.0
                                               : 1.0 + i);
  }
  for (int i = 0; i < 256; ++i)  // a full streaming-ROOT reservoir
    inputs["reservoir_256"].push_back(rng.NextLogNormal(3.0, 0.25));
  // Each size where the selection doubles its bin count, and one either
  // side; 4096 is also the largest input nth_element seeds from a copy.
  for (size_t threshold = 64; threshold <= 8192; threshold *= 2) {
    for (const size_t n : {threshold - 1, threshold, threshold + 1}) {
      std::vector<double>& values = inputs["bins_n" + std::to_string(n)];
      for (size_t i = 0; i < n; ++i)
        values.push_back(rng.NextBounded(1000) < 6
                             ? rng.NextLogNormal(4.6, 0.05)
                             : rng.NextLogNormal(3.0, 0.25));
    }
  }

  for (const auto& [name, values] : inputs) {
    for (const uint32_t k : {1u, 2u, 3u, 4u, 5u, 8u}) {
      const std::string where = name + " k=" + std::to_string(k);
      ExpectBitIdentical(Kmeans1D(values, k), ReferenceKmeans1D(values, k),
                         where);
      // The seeds alone: Lloyd steps forget which of ±0 seeded a center.
      ExpectBitIdentical(Kmeans1D(values, k, 0),
                         ReferenceKmeans1D(values, k, 0), where + " seeds");
    }
  }
}

/// With max_iters = 0 the centers are the seeds: each must be the
/// order statistic at its quantile rank, bit for bit, as a full sort
/// gives it. Inputs hold no NaN and no zero, so a sort defines a unique
/// bit pattern at every rank.
TEST(Kmeans1DTest, SeedsAreSortedOrderStatistics) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (uint64_t seed = 0; seed < 240; ++seed) {
    Rng rng(DeriveSeed(31, seed));
    const size_t n = 1 + rng.NextBounded(seed % 2 == 0 ? 40000 : 6000);
    const uint32_t k = 1 + static_cast<uint32_t>(rng.NextBounded(9));
    std::vector<double> values(n);
    const uint64_t shape = seed % 6;
    const double base = rng.NextLogNormal(0.0, 3.0);
    for (size_t i = 0; i < n; ++i) {
      double v = 0.0;
      switch (shape) {
        case 0:  // ROOT-shaped
          v = rng.NextLogNormal(3.0, 0.25);
          break;
        case 1:  // mixed signs, wide
          v = (rng.NextBounded(2) != 0 ? -1.0 : 1.0) *
              rng.NextLogNormal(0.0, 20.0);
          break;
        case 2:  // a run of adjacent bit patterns, both signs
          v = (i % 2 != 0 ? -1.0 : 1.0) *
              std::bit_cast<double>(std::bit_cast<uint64_t>(base) +
                                    rng.NextBounded(300));
          break;
        case 3:  // few distinct values
          v = -base * static_cast<double>(1 + rng.NextBounded(4));
          break;
        case 4:  // narrow body, far outliers, infinities
          v = rng.NextBounded(100) == 0
                  ? (rng.NextBounded(2) != 0 ? kInf : -1e300)
                  : 1.0 + static_cast<double>(rng.NextBounded(1000)) * 1e-12;
          break;
        default:  // subnormals to huge
          v = std::bit_cast<double>(1 + rng.NextBounded(0x7FEFFFFFFFFFFFFFull));
          break;
      }
      values[i] = v;
    }
    std::vector<double> sorted(values);
    std::sort(sorted.begin(), sorted.end());
    const KmeansResult result = Kmeans1D(values, k, 0);
    for (uint32_t c = 0; c < k; ++c) {
      const double q = (c + 0.5) / static_cast<double>(k);
      const double want = sorted[std::min(
          n - 1, static_cast<size_t>(q * static_cast<double>(n)))];
      EXPECT_EQ(std::bit_cast<uint64_t>(result.centers[c]),
                std::bit_cast<uint64_t>(want))
          << "seed " << seed << " shape " << shape << " n " << n << " k "
          << k << " c " << c;
    }
  }
}

/// The indices of `values` by ascending value; equal values in index
/// order, or in reverse index order when `reverse_ties`.
std::vector<uint16_t> AscendingOrder(const std::vector<double>& values,
                                     bool reverse_ties) {
  std::vector<uint16_t> order(values.size());
  std::iota(order.begin(), order.end(), uint16_t{0});
  std::sort(order.begin(), order.end(), [&](uint16_t a, uint16_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return reverse_ties ? b < a : a < b;
  });
  return order;
}

/// Inputs of up to 4,096 values with no NaN and no zero, the domain where
/// the order-seeded Kmeans1D promises bit identity: the shapes of the
/// tests above, and a sweep of sizes and shapes like the seed test's.
std::map<std::string, std::vector<double>> OrderSeededInputs() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  Rng rng(37);
  std::map<std::string, std::vector<double>> inputs;
  for (int i = 0; i < 400; ++i)
    inputs["duplicates"].push_back(1.0 +
                                   static_cast<double>(rng.NextBounded(5)));
  inputs["all_equal"] = std::vector<double>(100, 3.5);
  inputs["single"] = {7.0};
  inputs["two"] = {9.0, 1.0};
  inputs["n_below_k"] = {4.0, 1.0, 9.0};
  inputs["midpoint_pair"] = {1.0, 3.0, 2.0, 2.0, 1.0, 3.0};
  for (int i = 0; i < 600; ++i)
    inputs["midpoint_ties"].push_back(i % 3 == 0 ? 4.0 : i % 3 == 1 ? 2.0
                                                                     : 6.0);
  for (int i = 0; i < 1000; ++i)
    inputs["bimodal_ties"].push_back(i % 3 == 0 ? 100.0 : 10.0);
  for (int i = 0; i < 2000; ++i)
    inputs["heavy_tail"].push_back(rng.NextLogNormal(2.0, 2.0));
  for (int i = 0; i < 3000; ++i) {
    const double mu = 1.0 + static_cast<double>(rng.NextBounded(3));
    inputs["lognormal_mixture"].push_back(rng.NextLogNormal(mu, 0.6));
  }
  for (int i = 0; i < 256; ++i)  // a full streaming-ROOT reservoir
    inputs["reservoir_256"].push_back(rng.NextLogNormal(3.0, 0.25));
  for (int i = 0; i < 200; ++i)
    inputs["subnormals"].push_back(
        kDenorm * static_cast<double>(1 + rng.NextBounded(50)));
  inputs["subnormals"].push_back(-kDenorm);
  inputs["infinities"] = {1.0, kInf, 2.0, -kInf, 3.0, 4.0, kInf, 5.0};
  inputs["one_inf"] = {1.0, 2.0, 3.0, kInf, 2.5, 1.5};
  for (int i = 0; i < 4096; ++i)
    inputs["negative"].push_back(-rng.NextLogNormal(3.0, 0.5));
  for (int i = 0; i < 4000; ++i)
    inputs["span_1e300"].push_back(rng.NextLogNormal(3.0, 0.25));
  for (const double extreme : {1e-300, 1e-200, 1e200, 1e300, -1e300})
    inputs["span_1e300"].push_back(extreme);
  // Two values one ulp apart, and a far value that rounds its distances
  // to both to a tie.
  const double twin_up = std::nextafter(100.0, 200.0);
  for (int i = 0; i < 300; ++i)
    inputs["ulp_twins_far"].push_back(i % 2 == 0 ? 100.0 : twin_up);
  inputs["ulp_twins_far"].push_back(1e30);
  // The seeds 14 and 32 are 18 apart, below the 256 rounding step of
  // 2^60: 2^60 ties to center 0 above 30..33 at center 1. The -(2^60 -
  // 128) just before it in slot order cancels it in center 0's sum,
  // which puts the updated centers at 204/7 and 31.5 with 30 below and
  // 31 above their midpoint. The first pass left 7 values at center 0,
  // 2^60 among them, and the next one adds 30. A search of the new split
  // point alone finds 7 and would stop the loop.
  inputs["gap_below_far_step"] = {-0x1p60 + 128, 0x1p60, 14.0, 14.0, 14.0,
                                  14.0,          20.0,   30.0, 31.0, 32.0,
                                  33.0};
  // The seeds 14 and 40 tie 2^60 to center 0 again, so the first pass
  // leaves 9 values at center 0 that are not the 9 lowest. The updated
  // centers 232/9 and 2520 are far apart, a threshold that puts 40 at
  // center 0 and 2^60 at center 1: the split point is 9 again, but both
  // values move.
  inputs["far_tie_then_threshold"] = {-0x1p60 + 128, 0x1p60, 14.0, 14.0,
                                      14.0,          14.0,   14.0, 14.0,
                                      20.0,          40.0,   5000.0};
  for (size_t threshold = 64; threshold <= 4096; threshold *= 2) {
    for (const size_t n : {threshold - 1, threshold}) {
      std::vector<double>& values = inputs["bins_n" + std::to_string(n)];
      for (size_t i = 0; i < n; ++i)
        values.push_back(rng.NextBounded(1000) < 6
                             ? rng.NextLogNormal(4.6, 0.05)
                             : rng.NextLogNormal(3.0, 0.25));
    }
  }
  for (uint64_t seed = 0; seed < 120; ++seed) {
    Rng shape_rng(DeriveSeed(41, seed));
    const size_t n = 1 + shape_rng.NextBounded(4096);
    const double base = shape_rng.NextLogNormal(0.0, 3.0);
    std::vector<double>& values =
        inputs["sweep_" + std::to_string(seed)];
    for (size_t i = 0; i < n; ++i) {
      double v = 0.0;
      switch (seed % 5) {
        case 0:  // ROOT-shaped, a few far outliers
          v = shape_rng.NextBounded(200) == 0
                  ? shape_rng.NextLogNormal(0.0, 100.0)
                  : shape_rng.NextLogNormal(3.0, 0.25);
          break;
        case 1:  // mixed signs, wide
          v = (shape_rng.NextBounded(2) != 0 ? -1.0 : 1.0) *
              shape_rng.NextLogNormal(0.0, 20.0);
          break;
        case 2:  // a run of adjacent bit patterns
          v = std::bit_cast<double>(std::bit_cast<uint64_t>(base) +
                                    shape_rng.NextBounded(300));
          break;
        case 3:  // few distinct values
          v = base * static_cast<double>(1 + shape_rng.NextBounded(4));
          break;
        default:  // narrow body, far outliers, infinities
          v = shape_rng.NextBounded(100) == 0
                  ? (shape_rng.NextBounded(2) != 0 ? kInf : 1e300)
                  : 1.0 + static_cast<double>(shape_rng.NextBounded(1000)) *
                              1e-12;
          break;
      }
      values.push_back(v);
    }
  }
  return inputs;
}

/// The streaming split probe's k-means: seeds read from a kept ascending
/// order, and Lloyd's loop stopped early where a threshold proof allows
/// it. It must equal Kmeans1D bit for bit, with ties in either order.
TEST(Kmeans1DTest, OrderSeededProbeMatchesKmeans1DBitForBit) {
  telemetry::SetEnabled(true);
  uint64_t plain_iterations = 0;
  uint64_t ordered_iterations = 0;
  for (const auto& [name, values] : OrderSeededInputs()) {
    ASSERT_LE(values.size(), 4096u) << name;
    ASSERT_TRUE(std::all_of(values.begin(), values.end(),
                            [](double v) { return v < 0.0 || v > 0.0; }))
        << name;
    for (const bool reverse_ties : {false, true}) {
      const std::vector<uint16_t> order = AscendingOrder(values, reverse_ties);
      for (const uint32_t k : {1u, 2u, 3u, 5u}) {
        for (const uint32_t max_iters : {0u, 1u, 2u, 3u, 50u}) {
          const std::string where = name + " k=" + std::to_string(k) +
                                    " iters=" + std::to_string(max_iters) +
                                    (reverse_ties ? " reversed ties" : "");
          telemetry::Reset();
          const KmeansResult want = Kmeans1D(values, k, max_iters);
          plain_iterations +=
              telemetry::Capture().Counter("core.kmeans.iterations");
          telemetry::Reset();
          const KmeansResult got = Kmeans1D(values, order, k, max_iters);
          ordered_iterations +=
              telemetry::Capture().Counter("core.kmeans.iterations");
          ExpectBitIdentical(got, want, where);
        }
      }
    }
  }
  telemetry::SetEnabled(false);
  telemetry::Reset();
  // The early stop skips the confirming pass of most k = 2 runs.
  EXPECT_LT(ordered_iterations, plain_iterations);

  const std::vector<double> values = {2.0, 1.0, 3.0};
  const std::vector<uint16_t> short_order = {1, 0};
  EXPECT_THROW(Kmeans1D(values, short_order, 2), std::invalid_argument);
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
