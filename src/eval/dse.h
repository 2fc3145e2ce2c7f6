/// \file
/// Design-space exploration and cross-GPU evaluation (paper Sec. 5.4,
/// Table 4, Figs. 12-13).
///
/// The crucial property being tested: sampling plans are built from the
/// *baseline* hardware's profile, then judged against ground truth on a
/// *different* timing substrate (modified caches / SM counts, or a newer
/// GPU). A TimingFn abstracts that substrate so the same harness drives
/// both the analytic hardware model and the cycle-level simulator.
///
/// DseSweep is the batched cycle-level form of that experiment: every
/// (variant, workload) point of the sweep -- full simulation plus one
/// sampled simulation per plan -- is an independent task evaluated
/// concurrently over a shared already-profiled trace set. Points write
/// into index-addressed slots and each point's RNG stream derives from
/// (sweep seed, variant index, workload index), so the sweep's result is
/// byte-identical to running the points one at a time in a serial loop,
/// at any --threads setting.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "hw/hardware_model.h"
#include "sim/sampled_sim.h"

namespace stemroot::eval {

/// Microseconds for one invocation on some timing substrate.
using TimingFn =
    std::function<double(const KernelInvocation& inv)>;

/// A named hardware variant.
struct DseVariant {
  std::string name;
  hw::GpuSpec spec;
};

/// The Table 4 variant set: baseline, cache x2, cache x1/2, #SM x2,
/// #SM x1/2.
std::vector<DseVariant> StandardDseVariants(const hw::GpuSpec& base);

/// Per-invocation durations of a trace on a timing substrate.
std::vector<double> RetimeTrace(const KernelTrace& trace, const TimingFn& fn);

/// TimingFn from an analytic hardware model (fixed run seed for
/// reproducible jitter).
TimingFn AnalyticTiming(const hw::HardwareModel& gpu, uint64_t run_seed);

// ---------------------------------------------------------------------------
// Batched cycle-level DSE sweep

/// One workload entering a sweep: an already-profiled trace (typically
/// served by eval::TraceCache so every variant shares one generation +
/// profile) plus the sampling plans built from the *baseline* profile.
/// Both referents must outlive the sweep.
struct DseWorkload {
  const KernelTrace* trace = nullptr;
  std::span<const core::SamplingPlan> plans;
};

/// Sweep-wide knobs.
struct DseSweepOptions {
  uint64_t seed = 1;  ///< sweep seed; per-point streams derive from it
  /// Max concurrently evaluated points; 0 = common::NumThreads().
  int sweep_threads = 0;
  /// Forwarded into every point's TraceSimOptions.
  bool flush_l2_between_kernels = false;
  sim::WarmupPolicy warmup = sim::WarmupPolicy::kSameKernelThenPredecessor;
  sim::ShardOptions shard;  ///< carries nothing; see sim::ShardOptions
};

/// One sampling method's outcome at one sweep point.
struct DsePointMethod {
  std::string method;
  double estimated_cycles = 0.0;
  double cost_cycles = 0.0;  ///< cycles actually simulated by the plan
  size_t kernels_simulated = 0;
  double error_pct = 0.0;  ///< |estimated - full| / full * 100
};

/// Ground truth + per-method estimates for one (variant, workload) point.
struct DsePointResult {
  std::string variant;
  std::string workload;
  size_t variant_index = 0;
  size_t workload_index = 0;
  uint64_t seed = 0;  ///< the point's derived RNG stream seed
  double full_cycles = 0.0;
  std::vector<DsePointMethod> methods;  ///< plan order

  /// Arithmetic mean of the per-method errors (0 when no methods ran).
  double MeanErrorPct() const;
};

/// All points of a sweep, variant-major: points[v * num_workloads + w].
struct DseSweepResult {
  std::vector<DsePointResult> points;
  size_t num_variants = 0;
  size_t num_workloads = 0;

  const DsePointResult& At(size_t variant_index, size_t workload_index) const;
  /// Mean over workloads of one method's error on one variant (the Table 4
  /// cell). Throws std::out_of_range for an unknown method name.
  double MeanErrorPct(size_t variant_index, std::string_view method) const;
};

/// The batched sweep driver. Construction validates the options; Run
/// evaluates every (variant, workload) point concurrently (capped at
/// `sweep_threads` lanes) against the shared traces.
class DseSweep {
 public:
  DseSweep(std::vector<DseVariant> variants, DseSweepOptions options);

  /// The point's RNG stream: DeriveSeed(DeriveSeed(seed, variant), workload),
  /// masked to 53 bits so manifests (JSON numbers) round-trip it exactly.
  /// Depends only on the sweep seed and the point's indices -- never on
  /// thread count or evaluation order.
  uint64_t PointSeed(size_t variant_index, size_t workload_index) const;

  /// Evaluate one point synchronously on the calling thread. Run() is
  /// defined as exactly this, looped -- tests pin that equivalence.
  DsePointResult RunPoint(size_t variant_index, const DseWorkload& workload,
                          size_t workload_index) const;

  /// Evaluate all points of variants x workloads concurrently.
  DseSweepResult Run(std::span<const DseWorkload> workloads) const;

  const std::vector<DseVariant>& Variants() const { return variants_; }
  const DseSweepOptions& Options() const { return options_; }

 private:
  std::vector<DseVariant> variants_;
  DseSweepOptions options_;
};

}  // namespace stemroot::eval
