/// \file
/// Sampler interface + the STEM+ROOT sampler (the paper's contribution).
///
/// Pipeline (paper Fig. 3/5): group invocations by kernel name -> ROOT
/// hierarchically clusters each name's execution-time population -> STEM's
/// joint KKT solver sizes samples across ALL final clusters at once
/// (Sec. 3.3 optimizes across clusters from different kernels as well as
/// peaks of the same kernel) -> random sampling with replacement inside
/// each cluster (i.i.d. for the CLT, Sec. 3.5), weighting each draw by
/// N_i / m_i.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/plan.h"
#include "core/root.h"
#include "trace/trace.h"

namespace stemroot::core {

/// Abstract kernel-level sampler. Implementations: StemRootSampler here,
/// plus the baselines in src/baselines (PKA, Sieve, Photon, Random).
class Sampler {
 public:
  virtual ~Sampler() = default;

  /// Display name used in reports ("STEM", "PKA", ...).
  virtual std::string Name() const = 0;

  /// True when BuildPlan ignores the seed (first-chronological selection);
  /// evaluators then skip repeated runs.
  virtual bool Deterministic() const { return false; }

  /// Build a sampling plan for a profiled trace (durations must be
  /// filled). `seed` feeds any randomized choices so repeated experiment
  /// runs (the paper averages 10) differ.
  virtual SamplingPlan BuildPlan(const KernelTrace& trace,
                                 uint64_t seed) const = 0;

  /// Build `count` plans, index-aligned: plan r equals
  /// BuildPlan(trace, base_seed + r) entry for entry. The default maps
  /// BuildPlan over the reps in parallel; samplers whose seed only feeds
  /// a final draw override it to share the seed-independent work.
  /// Must be const-thread-safe (EvaluateRepeated and the audit rely on
  /// it); the result is identical at any thread count.
  virtual std::vector<SamplingPlan> BuildPlans(const KernelTrace& trace,
                                               uint64_t base_seed,
                                               uint32_t count) const;
};

/// STEM+ROOT configuration.
struct StemRootConfig {
  RootConfig root;  ///< includes the StemConfig (epsilon, confidence)
};

/// The clustering front half of STEM+ROOT (steps 1+2: group by kernel
/// name, ROOT-cluster each group), shared by StemRootSampler::BuildPlan
/// and the error-budget audit (eval/audit.h) so both always see the same
/// partition.
struct StemClustering {
  /// Final clusters over the whole trace; members index the timeline.
  std::vector<RootCluster> clusters;
  /// Kernel id of each cluster, index-aligned with `clusters`.
  std::vector<uint32_t> kernel_ids;
};

/// Deterministic for a given (trace, config): ROOT clustering draws no
/// randomness. Kernel groups are clustered in parallel and concatenated
/// in kernel-id order, so the result (and the core.root.* / core.kmeans.*
/// telemetry) is identical at any thread count. Throws
/// std::invalid_argument on an empty or unprofiled trace. Runs inside the
/// "cluster" telemetry span.
StemClustering BuildStemClusters(const KernelTrace& trace,
                                 const RootConfig& config);

/// The proposed sampler.
class StemRootSampler : public Sampler {
 public:
  explicit StemRootSampler(StemRootConfig config = {});

  std::string Name() const override { return "STEM"; }
  /// BuildPlans(trace, seed, 1)[0].
  SamplingPlan BuildPlan(const KernelTrace& trace,
                         uint64_t seed) const override;
  /// Steps 1-3 (ROOT + joint KKT) depend only on the trace, so they run
  /// once; only step 4's random draw is per plan, and the `count` draws
  /// run in parallel over the shared, read-only clustering.
  std::vector<SamplingPlan> BuildPlans(const KernelTrace& trace,
                                       uint64_t base_seed,
                                       uint32_t count) const override;

  const StemRootConfig& Config() const { return config_; }

 private:
  StemRootConfig config_;
};

}  // namespace stemroot::core
