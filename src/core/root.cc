#include "core/root.h"

#include <numeric>
#include <stdexcept>

#include "common/telemetry.h"
#include "common/trace_events.h"
#include "core/kkt.h"
#include "core/kmeans.h"

namespace stemroot::core {

void RootConfig::Validate() const {
  stem.Validate();
  if (branch_k < 2)
    throw std::invalid_argument("RootConfig: branch_k must be >= 2");
  if (min_split_size < 2)
    throw std::invalid_argument("RootConfig: min_split_size must be >= 2");
  if (max_depth == 0)
    throw std::invalid_argument("RootConfig: max_depth must be >= 1");
}

namespace {

/// Recursive worker. `values` are the durations of `members` (parallel
/// arrays) and `stats` is ClusterStats::Of(values), which the parent
/// already computed for its split test. Appends final clusters to `out`.
void Recurse(std::vector<double> values, std::vector<uint32_t> members,
             const ClusterStats& stats, uint32_t depth,
             const RootConfig& config, std::vector<RootCluster>& out) {
  // Nested begin/end pairs make the split tree's shape visible in a
  // `--trace` timeline: stack depth == recursion depth.
  trace_events::Scope recurse_scope("root.recurse");
  RootCluster cluster;
  cluster.stats = stats;
  cluster.depth = depth;

  const bool splittable = values.size() >= config.min_split_size &&
                          depth < config.max_depth &&
                          cluster.stats.stddev > 0.0;
  if (!splittable) {
    telemetry::Count("core.root.clusters");
    telemetry::Record("core.root.cluster_size",
                      static_cast<double>(values.size()));
    telemetry::Record("core.root.cluster_depth", static_cast<double>(depth));
    cluster.members = std::move(members);
    out.push_back(std::move(cluster));
    return;
  }

  // Try a k-way split (Eq. 7 vs Eq. 8).
  const KmeansResult split = Kmeans1D(values, config.branch_k);
  std::vector<std::vector<double>> child_values(config.branch_k);
  std::vector<std::vector<uint32_t>> child_members(config.branch_k);
  for (size_t i = 0; i < values.size(); ++i) {
    child_values[split.assignment[i]].push_back(values[i]);
    child_members[split.assignment[i]].push_back(members[i]);
  }

  bool degenerate = false;
  std::vector<ClusterStats> child_stats;
  for (uint32_t c = 0; c < config.branch_k; ++c) {
    if (child_values[c].empty()) {
      degenerate = true;  // fewer distinct values than branch_k
      break;
    }
    child_stats.push_back(ClusterStats::Of(child_values[c]));
  }

  if (!degenerate) {
    const uint64_t m_old = SingleClusterSampleSize(cluster.stats,
                                                   config.stem);
    const double tau_old = static_cast<double>(m_old) * cluster.stats.mean;
    const double tau_new = SolveKkt(child_stats, config.stem).cost_us;
    if (tau_new < tau_old) {
      telemetry::Count("core.root.splits");
      for (uint32_t c = 0; c < config.branch_k; ++c)
        Recurse(std::move(child_values[c]), std::move(child_members[c]),
                child_stats[c], depth + 1, config, out);
      return;
    }
  }

  telemetry::Count("core.root.split_rejects");
  telemetry::Count("core.root.clusters");
  telemetry::Record("core.root.cluster_size",
                    static_cast<double>(values.size()));
  telemetry::Record("core.root.cluster_depth", static_cast<double>(depth));
  cluster.members = std::move(members);
  out.push_back(std::move(cluster));
}

}  // namespace

std::vector<RootCluster> RootCluster1D(std::span<const double> durations,
                                       std::span<const uint32_t> indices,
                                       const RootConfig& config) {
  config.Validate();
  if (durations.size() != indices.size())
    throw std::invalid_argument("RootCluster1D: arity mismatch");
  std::vector<RootCluster> out;
  if (durations.empty()) return out;
  Recurse(std::vector<double>(durations.begin(), durations.end()),
          std::vector<uint32_t>(indices.begin(), indices.end()),
          ClusterStats::Of(durations), 0, config, out);
  return out;
}

std::vector<RootCluster> RootCluster1D(std::span<const double> durations,
                                       const RootConfig& config) {
  std::vector<uint32_t> indices(durations.size());
  std::iota(indices.begin(), indices.end(), 0u);
  return RootCluster1D(durations, indices, config);
}

}  // namespace stemroot::core
