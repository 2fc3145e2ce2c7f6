/// \file
/// ROOT — fine-grained hierarchical kernel clustering (paper Sec. 3.4).
///
/// Starting from one cluster per kernel name, ROOT recursively splits a
/// cluster with k-means (k = 2 by default) on execution times and accepts
/// the split iff it reduces STEM's predicted sampled-simulation cost
/// (Eq. 7 vs Eq. 8):
///
///   tau_old = m(C) * mean(C)                (Eq. 3 sizing of the parent)
///   tau_new = sum_i m_i * mean(C_i)         (Eq. 6 KKT sizing of children)
///
/// The recursion bottoms out when a split no longer saves simulated time,
/// when a cluster is too small to split, or at a depth guard. Because the
/// number of peaks in a kernel's time histogram is unknown in advance,
/// this adaptive stopping rule is what replaces "choose k" (Sec. 3.4).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/stem.h"

namespace stemroot::core {

/// ROOT knobs on top of StemConfig.
struct RootConfig {
  StemConfig stem;
  /// Split arity for each recursive step (paper: "any number above 2
  /// works well"; they use k-means with k = 2).
  uint32_t branch_k = 2;
  /// Do not attempt to split clusters smaller than this.
  uint64_t min_split_size = 8;
  /// Hard recursion depth guard (a binary split tree over N points is at
  /// most ~log2 N deep in practice; this only bounds adversarial inputs).
  uint32_t max_depth = 40;

  void Validate() const;
};

/// One final cluster: member indices into the caller's duration array,
/// plus the population stats STEM sizes it with.
struct RootCluster {
  std::vector<uint32_t> members;
  ClusterStats stats;
  uint32_t depth = 0;  ///< depth in the split tree (0 = never split)
};

/// Recursively cluster one kernel's execution-time population.
/// `durations[i]` is the time of invocation `indices[i]`; the returned
/// clusters partition `indices`. Throws on arity mismatch.
std::vector<RootCluster> RootCluster1D(std::span<const double> durations,
                                       std::span<const uint32_t> indices,
                                       const RootConfig& config);

/// Same, taking ownership of both arrays instead of copying them.
std::vector<RootCluster> RootCluster1D(std::vector<double>&& durations,
                                       std::vector<uint32_t>&& indices,
                                       const RootConfig& config);

}  // namespace stemroot::core
