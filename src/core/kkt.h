/// \file
/// Joint multi-cluster sample-size optimization (paper Sec. 3.3, Problem 1).
///
/// minimize   tau = sum_i m_i mu_i
/// subject to sum_i N_i^2 sigma_i^2 / m_i <= (epsilon sum_i N_i mu_i / z)^2
///
/// The KKT conditions give the closed form (paper Eq. 6 / Appendix 9.1,
/// with a_i = mu_i, b_i = N_i^2 sigma_i^2, c the error budget):
///
///     m_i = (sum_j sqrt(a_j b_j) / c) * sqrt(b_i / a_i)
///
/// On top of the closed form we handle the integer/boundary cases the
/// paper ceils away: per-cluster floors (every cluster needs >= 1 sample
/// to measure its mean), and clusters whose optimal m_i reaches the
/// population size (we then simulate the cluster exhaustively -- zero
/// variance contribution -- and re-solve for the rest, which only tightens
/// the bound).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/stem.h"

namespace stemroot::core {

/// Result of the joint optimization.
struct KktSolution {
  /// Per-cluster sample sizes, index-aligned with the input. A value equal
  /// to the cluster's population size means "simulate exhaustively".
  std::vector<uint64_t> sample_sizes;
  /// Objective value tau = sum m_i mu_i (microseconds).
  double cost_us = 0.0;
  /// Theoretical error of the solution (<= epsilon by construction unless
  /// every cluster is exhaustive, in which case it is 0).
  double theoretical_error = 0.0;
};

/// Solve Problem 1 for a set of clusters. Empty clusters get m = 0;
/// degenerate (sigma == 0) clusters get the floor. Throws
/// std::invalid_argument on non-positive means of non-empty clusters.
KktSolution SolveKkt(std::span<const ClusterStats> clusters,
                     const StemConfig& config);
/// The same with z = config.Z() given, for callers that solve many times
/// under one config and compute z once.
KktSolution SolveKkt(std::span<const ClusterStats> clusters,
                     const StemConfig& config, double z);

/// Independent per-cluster sizing via Eq. (3) -- the naive alternative the
/// paper compares against ("imposes strict error bounds on every cluster,
/// often resulting in a larger total sample size"). Used by the
/// ablation_kkt bench to reproduce the claimed 2-3x reduction.
KktSolution SolvePerCluster(std::span<const ClusterStats> clusters,
                            const StemConfig& config);

}  // namespace stemroot::core
