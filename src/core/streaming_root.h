/// \file
/// Streaming ROOT — incremental hierarchical clustering of one kernel's
/// execution-time population (the online counterpart of root.h).
///
/// Batch ROOT sees the whole population and recursively splits it; a
/// resident sampling session (service/service.h) sees invocations one
/// Feed() chunk at a time and must keep a useful cluster structure at all
/// times. StreamingRoot maintains that structure with mini-batch k-means
/// discipline:
///
///   - **Assign**: each new duration joins the cluster with the nearest
///     center (the running mean) and updates its Welford accumulator.
///   - **Split**: every `reassess_interval` observations, each cluster is
///     re-examined with the batch ROOT acceptance rule (Eq. 7 vs Eq. 8):
///     k-means with k = 2 runs over the cluster's *reservoir* (a bounded,
///     deterministic uniform sample of its members) and the split is taken
///     iff the KKT-sized children predict a cheaper sampled simulation
///     than the Eq. 3-sized parent. The partition depends only on the
///     reservoir, so it is cached and k-means re-runs only after the
///     reservoir was written; the acceptance test itself is re-derived
///     from the current population stats every time.
///   - **Merge**: after splits, adjacent clusters (by center) are merged
///     back when the same cost rule says the separation no longer pays --
///     the guard against over-splitting on early, noisy data.
///
/// Every decision is a pure function of the observation order and the
/// seed (reservoir replacement uses a per-cluster Rng derived from the
/// seed and a monotone cluster uid), so a session that feeds the same
/// data in the same chunks reproduces the same structure at any thread
/// count -- StreamingRoot itself is single-owner and unsynchronized; the
/// owning session serializes access.
///
/// The streaming structure is *advisory*: it powers the cheap per-Query
/// error bound and the early-stop decision. Plan materialization always
/// re-runs the canonical batch sampler over the accumulated trace, which
/// is what pins the replay-equivalence contract (DESIGN.md section 13).

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/root.h"
#include "trace/kernel.h"
#include "trace/trace.h"

namespace stemroot::core {

/// Knobs of the incremental clusterer, on top of the batch RootConfig
/// (whose stem member supplies epsilon/confidence for the cost rule).
struct StreamingRootConfig {
  RootConfig root;
  /// Per-cluster reservoir capacity: the bounded uniform sample that
  /// split decisions run k-means over.
  uint32_t reservoir_capacity = 256;
  /// Do not consider splitting a cluster before its reservoir holds this
  /// many observations (split decisions on a handful of points are noise).
  uint64_t min_split_observations = 64;
  /// Observations between split/merge reassessment passes (per kernel).
  uint64_t reassess_interval = 64;
  /// Hard cap on clusters per kernel (guards adversarial streams).
  uint32_t max_clusters = 64;

  void Validate() const;  ///< throws std::invalid_argument
};

/// Online clusterer for one kernel's execution-time population.
class StreamingRoot {
 public:
  /// `seed` scopes the deterministic reservoir sampling; use
  /// DeriveSeed(session_seed, kernel_id) so kernels get independent
  /// streams.
  StreamingRoot(const StreamingRootConfig& config, uint64_t seed);

  /// Fold one profiled invocation duration (microseconds, > 0) into the
  /// structure. Triggers a split/merge reassessment every
  /// `reassess_interval` observations.
  void Observe(double duration_us);

  uint64_t Observations() const { return observations_; }
  size_t NumClusters() const { return clusters_.size(); }

  /// Current population statistics of every cluster, ordered by center
  /// (ascending mean). The `n` fields sum to Observations().
  std::vector<ClusterStats> Stats() const;

  /// Lifetime structural-event counts (telemetry fodder for the service).
  uint64_t NumSplits() const { return splits_; }
  uint64_t NumMerges() const { return merges_; }

 private:
  /// The k = 2 partition of one reservoir state and its sample stats.
  /// Everything here is a pure function of the reservoir contents, so it
  /// stays valid until the reservoir is written again.
  struct SplitProbe {
    uint64_t version = 0;      ///< Cluster::reservoir_version probed
    std::vector<bool> in_low;  ///< per reservoir slot: in the lower half
    size_t low_count = 0;      ///< reservoir members in the lower half
    ClusterStats low_stats;    ///< sample stats (set when both halves
    ClusterStats high_stats;   ///< are non-empty; n = sample count)
  };

  struct Cluster {
    StreamingStats stats;           ///< Welford accumulator (population)
    std::vector<double> reservoir;  ///< bounded uniform member sample
    uint64_t reservoir_seen = 0;    ///< observations offered to the reservoir
    /// Bumped on every reservoir write; a probe of an older version is
    /// stale.
    uint64_t reservoir_version = 0;
    std::optional<SplitProbe> probe;  ///< last k-means split probe
    Rng rng;                        ///< reservoir replacement stream

    Cluster() : rng(0) {}
    double Center() const { return stats.Mean(); }
    ClusterStats PopulationStats() const;
  };

  Cluster MakeCluster();
  /// The cluster's split probe, re-running k-means only when the
  /// reservoir changed since the last one.
  static const SplitProbe& Probe(Cluster& cluster);
  void ObserveInto(Cluster& cluster, double duration_us);
  void Reassess();
  bool TrySplit(size_t index);   ///< true when the cluster was split
  void TryMerges();

  StreamingRootConfig config_;
  uint64_t seed_ = 0;
  uint64_t next_cluster_uid_ = 0;
  uint64_t observations_ = 0;
  uint64_t since_reassess_ = 0;
  uint64_t splits_ = 0;
  uint64_t merges_ = 0;
  std::vector<Cluster> clusters_;  ///< kept sorted by center
};

/// Whole-trace streaming ROOT: one StreamingRoot per kernel type, fed
/// chunk by chunk (trace/chunked.h). This is the clustering stage of the
/// out-of-core pipeline -- it never needs more of the timeline resident
/// than the chunk currently being folded, so a billion-invocation trace
/// clusters in bounded memory.
///
/// Per-kernel seeds derive as DeriveSeed(seed, kernel_id), identical to
/// feeding each kernel's durations to a standalone StreamingRoot, so the
/// structure is a pure function of (header, chunk contents in order,
/// seed) -- invariant to chunk size and to whether the chunks came from
/// memory, a file, or a replicated synthetic source.
class StreamingTraceClusterer {
 public:
  /// `header` supplies the kernel-type table (a HeaderClone() is fine);
  /// one StreamingRoot is created per type.
  StreamingTraceClusterer(const StreamingRootConfig& config,
                          const KernelTrace& header, uint64_t seed);

  /// Fold one chunk of invocations (timeline order across calls).
  /// Invocations with non-positive durations are skipped, matching the
  /// service-session feed contract. The whole chunk is validated before
  /// anything is folded: a kernel_id outside the header table throws
  /// std::out_of_range and a NaN duration std::invalid_argument, with the
  /// clusterer unchanged.
  ///
  /// Kernels fold in parallel (one ParallelFor lane each). Every kernel's
  /// StreamingRoot sees its own durations in timeline order, so the
  /// structure is the same at any thread count. When given, `alongside`
  /// runs on one more lane of the same region (StreamTrace reads the next
  /// chunk there); the fold always completes before an exception it
  /// threw is rethrown.
  void ObserveChunk(std::span<const KernelInvocation> chunk,
                    const std::function<void()>& alongside = {});

  size_t NumKernels() const { return roots_.size(); }
  const StreamingRoot& Root(size_t kernel_id) const {
    return roots_.at(kernel_id);
  }

  /// Invocations folded (positive-duration only).
  uint64_t Observations() const { return observations_; }
  /// Current cluster count summed over kernels.
  size_t TotalClusters() const;
  /// Lifetime split/merge totals summed over kernels.
  uint64_t TotalSplits() const;
  uint64_t TotalMerges() const;

  /// Concatenated per-kernel cluster stats in kernel-id order (each
  /// kernel's clusters ordered by center), the flat form eval::StreamTrace
  /// reports.
  std::vector<ClusterStats> AllStats() const;

 private:
  std::vector<StreamingRoot> roots_;  ///< index == kernel_id
  /// Per-kernel durations of the chunk being folded (reused scratch).
  std::vector<std::vector<double>> buckets_;
  uint64_t observations_ = 0;
};

}  // namespace stemroot::core
