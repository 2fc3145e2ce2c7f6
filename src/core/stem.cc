#include "core/stem.h"

#include <cmath>
#include <stdexcept>

namespace stemroot::core {

void StemConfig::Validate() const {
  if (!(epsilon > 0.0))
    throw std::invalid_argument("StemConfig: epsilon must be > 0");
  if (!(confidence > 0.0 && confidence < 1.0))
    throw std::invalid_argument("StemConfig: confidence must be in (0, 1)");
  if (min_samples == 0)
    throw std::invalid_argument("StemConfig: min_samples must be >= 1");
}

ClusterStats ClusterStats::Of(std::span<const double> durations) {
  const SummaryStats s = SummaryStats::Of(durations);
  ClusterStats c;
  c.n = s.count;
  c.mean = s.mean;
  c.stddev = s.Stddev();
  return c;
}

uint64_t SingleClusterSampleSize(const ClusterStats& cluster,
                                 const StemConfig& config) {
  config.Validate();
  return SingleClusterSampleSize(cluster, config, config.Z());
}

uint64_t SingleClusterSampleSize(const ClusterStats& cluster,
                                 const StemConfig& config, double z) {
  config.Validate();
  if (cluster.n == 0) return 0;
  if (cluster.mean <= 0.0)
    throw std::invalid_argument(
        "SingleClusterSampleSize: non-positive cluster mean");
  if (cluster.stddev <= 0.0)
    return std::min<uint64_t>(config.min_samples, cluster.n);

  const double m_real =
      std::pow(z / config.epsilon * cluster.stddev / cluster.mean, 2.0);
  const uint64_t m = static_cast<uint64_t>(std::ceil(m_real));
  return std::min<uint64_t>(std::max(m, config.min_samples), cluster.n);
}

double TheoreticalError(const ClusterStats& cluster, uint64_t m,
                        const StemConfig& config) {
  config.Validate();
  if (m == 0) throw std::invalid_argument("TheoreticalError: m == 0");
  if (cluster.mean <= 0.0)
    throw std::invalid_argument("TheoreticalError: non-positive mean");
  return config.Z() * cluster.stddev /
         (cluster.mean * std::sqrt(static_cast<double>(m)));
}

double MultiClusterError(std::span<const ClusterStats> clusters,
                         std::span<const uint64_t> sample_sizes,
                         const StemConfig& config) {
  config.Validate();
  if (clusters.size() != sample_sizes.size())
    throw std::invalid_argument("MultiClusterError: arity mismatch");
  double variance = 0.0;  // sum N_i^2 sigma_i^2 / m_i
  double total_mean = 0.0;  // sum N_i mu_i
  for (size_t i = 0; i < clusters.size(); ++i) {
    const ClusterStats& c = clusters[i];
    if (c.n == 0) continue;
    if (sample_sizes[i] == 0)
      throw std::invalid_argument("MultiClusterError: m_i == 0");
    const double big_n = static_cast<double>(c.n);
    variance += big_n * big_n * c.stddev * c.stddev /
                static_cast<double>(sample_sizes[i]);
    total_mean += big_n * c.mean;
  }
  if (total_mean <= 0.0)
    throw std::invalid_argument("MultiClusterError: non-positive total");
  return config.Z() * std::sqrt(variance) / total_mean;
}

double SampleCost(std::span<const ClusterStats> clusters,
                  std::span<const uint64_t> sample_sizes) {
  if (clusters.size() != sample_sizes.size())
    throw std::invalid_argument("SampleCost: arity mismatch");
  double tau = 0.0;
  for (size_t i = 0; i < clusters.size(); ++i)
    tau += static_cast<double>(sample_sizes[i]) * clusters[i].mean;
  return tau;
}

}  // namespace stemroot::core
