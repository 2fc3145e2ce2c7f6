/// \file
/// STEM — Statistical Error Modeling for GPU simulation (paper Sec. 3.2).
///
/// Given the execution-time population of a kernel cluster (mean mu,
/// standard deviation sigma, size N), the Central Limit Theorem gives the
/// sampling distribution of the estimated total, and inverting its
/// confidence interval yields the minimal sample size with error bounded
/// by epsilon (Eq. 3):
///
///     m = ceil( (z_{1-alpha/2} / epsilon * sigma / mu)^2 )
///
/// TheoreticalError is the forward direction (Eq. 2). Multi-cluster joint
/// optimization lives in kkt.h.

#pragma once

#include <cstdint>
#include <span>

#include "common/stats.h"

namespace stemroot::core {

/// Global STEM knobs: the error bound epsilon and the confidence level
/// 1 - alpha (paper defaults: 0.05 and 0.95, z = 1.96).
struct StemConfig {
  double epsilon = 0.05;
  double confidence = 0.95;
  /// Floor on per-cluster sample sizes (>= 1; every non-empty cluster must
  /// contribute at least one representative).
  uint64_t min_samples = 1;

  /// z_{1-alpha/2} for this confidence level.
  double Z() const { return ZScore(confidence); }

  /// Validate ranges; throws std::invalid_argument.
  void Validate() const;
};

/// Execution-time population statistics of one kernel cluster.
struct ClusterStats {
  uint64_t n = 0;      ///< population size N_i = |C_i|
  double mean = 0.0;   ///< mu_i (microseconds)
  double stddev = 0.0; ///< sigma_i

  /// From a population of durations.
  static ClusterStats Of(std::span<const double> durations);

  /// Coefficient of variation sigma/mu (0 when mean is 0).
  double Cov() const { return mean != 0.0 ? stddev / mean : 0.0; }
};

/// Eq. (3): minimal sample size for a single cluster under the config's
/// error bound. Capped at the population size n (sampling more than the
/// population cannot be required for a bounded estimate). Returns
/// config.min_samples for degenerate (sigma == 0) clusters.
uint64_t SingleClusterSampleSize(const ClusterStats& cluster,
                                 const StemConfig& config);
/// The same with z = config.Z() given, for callers that size many
/// clusters under one config and compute z once.
uint64_t SingleClusterSampleSize(const ClusterStats& cluster,
                                 const StemConfig& config, double z);

/// Eq. (2): theoretical relative error (at the config's confidence level)
/// of estimating the cluster total from m samples. Throws for m == 0 or a
/// non-positive mean.
double TheoreticalError(const ClusterStats& cluster, uint64_t m,
                        const StemConfig& config);

/// Multi-cluster theoretical error (the left side of Eq. (5) folded into
/// relative form): z * sqrt(sum N_i^2 sigma_i^2 / m_i) / sum N_i mu_i.
/// Throws on arity mismatch, m_i == 0, or non-positive total mean.
double MultiClusterError(std::span<const ClusterStats> clusters,
                         std::span<const uint64_t> sample_sizes,
                         const StemConfig& config);

/// Predicted sampled-simulation cost tau = sum m_i * mu_i (microseconds):
/// the objective of Problem 1.
double SampleCost(std::span<const ClusterStats> clusters,
                  std::span<const uint64_t> sample_sizes);

}  // namespace stemroot::core
