#include "core/kkt.h"

#include <cmath>
#include <stdexcept>

#include "common/telemetry.h"
#include "common/trace_events.h"

namespace stemroot::core {

namespace {

/// Fill the theoretical error + cost of a finished solution.
void Finish(std::span<const ClusterStats> clusters, double z,
            KktSolution& solution) {
  solution.cost_us = SampleCost(clusters, solution.sample_sizes);
  // Exhaustive clusters (m_i == N_i) contribute zero estimation variance;
  // build the adjusted stats for error reporting.
  double variance = 0.0;
  double total_mean = 0.0;
  for (size_t i = 0; i < clusters.size(); ++i) {
    const ClusterStats& c = clusters[i];
    if (c.n == 0) continue;
    const double big_n = static_cast<double>(c.n);
    total_mean += big_n * c.mean;
    if (solution.sample_sizes[i] >= c.n) continue;  // exhaustive
    variance += big_n * big_n * c.stddev * c.stddev /
                static_cast<double>(solution.sample_sizes[i]);
  }
  solution.theoretical_error =
      total_mean > 0.0 ? z * std::sqrt(variance) / total_mean : 0.0;
}

}  // namespace

KktSolution SolveKkt(std::span<const ClusterStats> clusters,
                     const StemConfig& config) {
  config.Validate();
  return SolveKkt(clusters, config, config.Z());
}

KktSolution SolveKkt(std::span<const ClusterStats> clusters,
                     const StemConfig& config, double z) {
  config.Validate();
  telemetry::Count("core.kkt.solves");
  trace_events::Scope solve_scope("kkt.solve");
  KktSolution solution;
  solution.sample_sizes.assign(clusters.size(), 0);

  double total_mean = 0.0;  // sum N_i mu_i over non-empty clusters
  for (const ClusterStats& c : clusters) {
    if (c.n == 0) continue;
    if (c.mean <= 0.0)
      throw std::invalid_argument("SolveKkt: non-positive cluster mean");
    total_mean += static_cast<double>(c.n) * c.mean;
  }
  if (total_mean <= 0.0) return solution;

  const double budget = std::pow(config.epsilon * total_mean / z, 2.0);

  // Clusters currently in the interior of the feasible region. Clusters
  // leave the active set when their closed-form m_i reaches the population
  // size (exhaustive) -- their variance term vanishes and the remaining
  // budget is re-split among the rest.
  std::vector<size_t> active;
  for (size_t i = 0; i < clusters.size(); ++i) {
    const ClusterStats& c = clusters[i];
    if (c.n == 0) continue;
    if (c.stddev <= 0.0) {
      // Degenerate cluster: its mean is exact after min_samples draws.
      solution.sample_sizes[i] =
          std::min<uint64_t>(config.min_samples, c.n);
    } else {
      active.push_back(i);
    }
  }

  while (!active.empty()) {
    telemetry::Count("core.kkt.clamp_rounds");
    trace_events::Instant("kkt.clamp_round");
    // Closed form over the active set: m_i = (sum_j sqrt(a_j b_j) / c)
    // * sqrt(b_i / a_i), a_i = mu_i, b_i = N_i^2 sigma_i^2.
    double lagrange_sum = 0.0;  // sum_j sqrt(a_j b_j)
    for (size_t i : active) {
      const ClusterStats& c = clusters[i];
      const double b = std::pow(static_cast<double>(c.n) * c.stddev, 2.0);
      lagrange_sum += std::sqrt(c.mean * b);
    }
    // Clamp at most the WORST violator per iteration: removing one
    // exhaustive cluster shrinks the remaining clusters' optimal sizes,
    // so clamping all violators against a stale multiplier over-clamps.
    ptrdiff_t worst = -1;
    double worst_ratio = 1.0;
    for (size_t i : active) {
      const ClusterStats& c = clusters[i];
      const double b = std::pow(static_cast<double>(c.n) * c.stddev, 2.0);
      const double m_real = lagrange_sum / budget * std::sqrt(b / c.mean);
      uint64_t m = static_cast<uint64_t>(std::ceil(m_real));
      m = std::max(m, config.min_samples);
      solution.sample_sizes[i] = m;
      const double ratio = m_real / static_cast<double>(c.n);
      if (m >= c.n && ratio >= worst_ratio) {
        worst_ratio = ratio;
        worst = static_cast<ptrdiff_t>(i);
      }
    }
    if (worst < 0) break;  // interior solution: done
    solution.sample_sizes[static_cast<size_t>(worst)] =
        clusters[static_cast<size_t>(worst)].n;
    std::erase(active, static_cast<size_t>(worst));
  }

  Finish(clusters, z, solution);
  return solution;
}

KktSolution SolvePerCluster(std::span<const ClusterStats> clusters,
                            const StemConfig& config) {
  config.Validate();
  telemetry::Count("core.kkt.per_cluster_solves");
  const double z = config.Z();
  KktSolution solution;
  solution.sample_sizes.reserve(clusters.size());
  for (const ClusterStats& c : clusters)
    solution.sample_sizes.push_back(SingleClusterSampleSize(c, config, z));
  Finish(clusters, z, solution);
  return solution;
}

}  // namespace stemroot::core
