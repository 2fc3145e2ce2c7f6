#include "core/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/telemetry.h"
#include "common/trace_events.h"

namespace stemroot::core {

namespace {

/// The assignment step of Kmeans1D for k = 2: branch-free, and
/// bit-identical to the general loop (DESIGN.md §7).
///
/// Points go in blocks of kBlock. A fixed-trip loop first decides the
/// whole block, with the general loop's rule: center 1 wins iff
/// d1 < (d0 < inf ? d0 : inf), a strict `<` against a best distance that
/// starts at +inf, so NaN and inf distances resolve as they always did.
/// It also writes each point's two addends: its value for its own
/// cluster and +0.0 for the other. That loop has no cross-point
/// dependence, so the compiler turns its selects into vector compares
/// and blends. A second loop then adds the addends to the two sums in
/// point order and updates assignment, counts and `moved`.
///
/// A sum that starts at +0.0 never becomes -0.0, and x + (+0.0) == x for
/// every other x, so each sum equals the general loop's sequential sum.
/// Writes sums[0..1] and counts[0..1]; returns whether any point moved.
bool AssignTwo(std::span<const double> values, double c0, double c1,
               uint32_t* assignment, double* sums, uint64_t* counts) {
  constexpr size_t kBlock = 64;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double add0[kBlock];
  double add1[kBlock];
  double to1[kBlock];  // 1.0 where the point joins cluster 1, else 0.0
  double padded[kBlock];
  double sum0 = 0.0;
  double sum1 = 0.0;
  uint64_t count1 = 0;
  uint32_t moved = 0;
  const size_t n = values.size();
  for (size_t begin = 0; begin < n; begin += kBlock) {
    const size_t len = std::min(kBlock, n - begin);
    const double* v = values.data() + begin;
    if (len < kBlock) {  // pad the last block to keep the trip count fixed
      std::fill(std::copy(v, v + len, padded), padded + kBlock, 0.0);
      v = padded;
    }
    for (size_t j = 0; j < kBlock; ++j) {
      const double d0 = std::abs(v[j] - c0);
      const double d1 = std::abs(v[j] - c1);
      const bool one = d1 < (d0 < kInf ? d0 : kInf);
      add0[j] = one ? 0.0 : v[j];
      add1[j] = one ? v[j] : 0.0;
      to1[j] = one ? 1.0 : 0.0;
    }
    uint32_t* block_assignment = assignment + begin;
    for (size_t j = 0; j < len; ++j) {
      sum0 += add0[j];
      sum1 += add1[j];
      const uint32_t best = static_cast<uint32_t>(to1[j]);
      moved |= block_assignment[j] ^ best;
      block_assignment[j] = best;
      count1 += best;
    }
  }
  sums[0] = sum0;
  sums[1] = sum1;
  counts[0] = n - count1;
  counts[1] = count1;
  return moved != 0;
}

}  // namespace

KmeansResult Kmeans1D(std::span<const double> values, uint32_t k,
                      uint32_t max_iters) {
  if (k == 0) throw std::invalid_argument("Kmeans1D: k == 0");
  if (values.empty()) throw std::invalid_argument("Kmeans1D: empty input");

  const size_t n = values.size();
  KmeansResult result;
  result.k = k;
  result.assignment.assign(n, 0);
  result.centers.resize(k);

  // Quantile seeding: center c is the order statistic at rank
  // floor((c + 0.5) / k * n). The ranks ascend, so each nth_element only
  // searches the tail the previous one left above its rank -- O(n k)
  // instead of a full sort, with the same values.
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
    result.centers[c] = order[rank];
  }

  telemetry::Count("core.kmeans.runs");
  trace_events::Scope run_scope("kmeans.run");
  std::vector<double> sums(k);
  std::vector<uint64_t> counts(k);
  for (uint32_t iter = 0; iter < max_iters; ++iter) {
    telemetry::Count("core.kmeans.iterations");
    trace_events::Instant("kmeans.iteration");
    bool moved = false;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);

    if (k == 2) {
      moved = AssignTwo(values, result.centers[0], result.centers[1],
                        result.assignment.data(), sums.data(),
                        counts.data());
    } else {
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
    }

    for (uint32_t c = 0; c < k; ++c) {
      if (counts[c] > 0) {
        result.centers[c] = sums[c] / static_cast<double>(counts[c]);
      } else {
        // Re-seed an empty cluster at the point farthest from its center.
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
    }
    if (!moved && iter > 0) break;
  }

  result.inertia = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = values[i] - result.centers[result.assignment[i]];
    result.inertia += d * d;
  }
  return result;
}

namespace {

double SqDist(std::span<const double> points, size_t dim, size_t i,
              std::span<const double> centers, uint32_t c) {
  double sum = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double d = points[i * dim + j] - centers[c * dim + j];
    sum += d * d;
  }
  return sum;
}

}  // namespace

KmeansResult KmeansNd(std::span<const double> points, size_t dim, uint32_t k,
                      uint32_t max_iters) {
  if (k == 0) throw std::invalid_argument("KmeansNd: k == 0");
  if (dim == 0) throw std::invalid_argument("KmeansNd: dim == 0");
  if (points.empty() || points.size() % dim != 0)
    throw std::invalid_argument("KmeansNd: bad points array");
  const size_t n = points.size() / dim;

  KmeansResult result;
  result.k = k;
  result.assignment.assign(n, 0);
  result.centers.assign(static_cast<size_t>(k) * dim, 0.0);

  // Maximin seeding: first center = centroid-nearest point, then
  // iteratively the point farthest from all chosen centers.
  std::vector<double> centroid(dim, 0.0);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < dim; ++j)
      centroid[j] += points[i * dim + j] / static_cast<double>(n);
  size_t first = 0;
  double first_dist = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    double d = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      const double diff = points[i * dim + j] - centroid[j];
      d += diff * diff;
    }
    if (d < first_dist) {
      first_dist = d;
      first = i;
    }
  }
  std::copy_n(points.begin() + static_cast<ptrdiff_t>(first * dim), dim,
              result.centers.begin());
  std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
  for (uint32_t c = 1; c < k; ++c) {
    size_t far_idx = 0;
    double far_dist = -1.0;
    for (size_t i = 0; i < n; ++i) {
      min_dist[i] = std::min(min_dist[i], SqDist(points, dim, i,
                                                 result.centers, c - 1));
      if (min_dist[i] > far_dist) {
        far_dist = min_dist[i];
        far_idx = i;
      }
    }
    std::copy_n(points.begin() + static_cast<ptrdiff_t>(far_idx * dim), dim,
                result.centers.begin() + static_cast<ptrdiff_t>(c) * dim);
  }

  telemetry::Count("core.kmeans.nd_runs");
  std::vector<double> sums(static_cast<size_t>(k) * dim);
  std::vector<uint64_t> counts(k);
  for (uint32_t iter = 0; iter < max_iters; ++iter) {
    telemetry::Count("core.kmeans.nd_iterations");
    bool moved = false;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);

    for (size_t i = 0; i < n; ++i) {
      uint32_t best = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (uint32_t c = 0; c < k; ++c) {
        const double d = SqDist(points, dim, i, result.centers, c);
        if (d < best_dist) {
          best_dist = d;
          best = c;
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        moved = true;
      }
      for (size_t j = 0; j < dim; ++j) sums[best * dim + j] += points[i * dim + j];
      ++counts[best];
    }

    for (uint32_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // keep previous center
      for (size_t j = 0; j < dim; ++j)
        result.centers[c * dim + j] =
            sums[c * dim + j] / static_cast<double>(counts[c]);
    }
    if (!moved && iter > 0) break;
  }

  result.inertia = 0.0;
  for (size_t i = 0; i < n; ++i)
    result.inertia += SqDist(points, dim, i, result.centers,
                             result.assignment[i]);
  return result;
}

}  // namespace stemroot::core
