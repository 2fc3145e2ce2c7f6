/// \file
/// k-means clustering: a fast 1-D specialization (ROOT clusters on scalar
/// execution times) and a general d-dimensional version (PKA clusters on
/// 12-dimensional feature vectors).
///
/// Both use deterministic quantile/maximin seeding and Lloyd iterations,
/// so results are reproducible without an RNG.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace stemroot::core {

/// Assignment + centers of one clustering.
struct KmeansResult {
  std::vector<uint32_t> assignment;  ///< per-point cluster index in [0, k)
  std::vector<double> centers;       ///< 1-D: k centers; d-D: k*d row-major
  uint32_t k = 0;
  double inertia = 0.0;  ///< sum of squared distances to assigned centers
};

/// 1-D k-means over scalar values. Deterministic: center i is seeded at
/// the order statistic of rank floor((i + 0.5) / k * n), found by exact
/// selection in O(n) without copying large inputs (DESIGN.md §7). Empty
/// clusters are re-seeded at the point farthest from its center. Throws
/// for k == 0 or empty input; if the input has fewer distinct values
/// than k the result may have empty clusters (callers must check).
KmeansResult Kmeans1D(std::span<const double> values, uint32_t k,
                      uint32_t max_iters = 50);

/// Kmeans1D over values whose ascending order is known: `order` lists
/// the indices of `values` by ascending value, so it holds at most 65,536
/// values. The seeds are read from it by index, and for k = 2 Lloyd's
/// loop stops before a pass that could only confirm that no point moved
/// (DESIGN.md section 16). When `values` hold no NaN and no zero, values
/// equal under `<` share a bit pattern, and the result equals
/// Kmeans1D(values, k, max_iters) bit for bit. Throws like Kmeans1D, and
/// when `order` and `values` differ in size.
KmeansResult Kmeans1D(std::span<const double> values,
                      std::span<const uint16_t> order, uint32_t k,
                      uint32_t max_iters = 50);

/// General d-dimensional k-means (row-major points, n x d). Deterministic
/// maximin ("farthest point") seeding from the data centroid.
KmeansResult KmeansNd(std::span<const double> points, size_t dim, uint32_t k,
                      uint32_t max_iters = 50);

}  // namespace stemroot::core
