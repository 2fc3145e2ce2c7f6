/// \file
/// Full vs. sampled trace simulation drivers (paper Sec. 3.5 / Fig. 5 and
/// the Table 4 / Fig. 12 DSE experiments).
///
/// Full simulation runs every invocation in timeline order on one
/// Simulator instance (L2 stays warm across kernels). Sampled simulation
/// runs only the plan's distinct invocations, in timeline order on one
/// Simulator, and extrapolates the total with the plan weights -- exactly
/// what a sampling-aware simulator does with the embedded sampling
/// information.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/plan.h"
#include "sim/simulator.h"

namespace stemroot::sim {

/// How the sampled simulation warms microarchitectural state before
/// timing each selected kernel. Warmup of sampled GPU simulations is the
/// open problem of the paper's Sec. 6.2 ("lightweight warmup strategies,
/// such as inserting warmup instructions or short warmup kernels, may
/// offer practical benefits"); these policies implement that spectrum.
enum class WarmupPolicy {
  /// No warmup: every sampled kernel starts from whatever L2 state the
  /// previously sampled kernel left (biased cold for sparse plans).
  kNone,
  /// Replay the timeline predecessor untimed: reproduces the pollution
  /// the measured kernel inherits.
  kPredecessor,
  /// Replay the previous invocation of the same kernel untimed: warms the
  /// kernel's own data region.
  kSameKernel,
  /// Both (default): previous same-kernel launch, then the immediate
  /// predecessor -- region warmth plus realistic pollution.
  kSameKernelThenPredecessor,
};

/// Options shared by full and sampled runs.
struct TraceSimOptions {
  uint64_t seed = 1;  ///< instruction-stream seed (shared full/sampled)
  /// Flush the L2 slice before every kernel (the Sec. 6.2 extreme-case
  /// warmup experiment). Overrides the warmup policy.
  bool flush_l2_between_kernels = false;
  /// Warmup strategy for sampled simulation (ignored by full simulation,
  /// which is always naturally warm).
  WarmupPolicy warmup = WarmupPolicy::kSameKernelThenPredecessor;
  ShardOptions shard;  ///< carries nothing; see ShardOptions
};

/// Full-simulation result.
struct TraceSimResult {
  double total_cycles = 0.0;
  std::vector<double> per_invocation_cycles;  ///< timeline order
  SmStats stats;
};

/// Simulate every invocation of the trace.
TraceSimResult SimulateTraceFull(const KernelTrace& trace,
                                 const SimConfig& config,
                                 const TraceSimOptions& options = {});

/// Sampled-simulation result.
struct SampledSimResult {
  double estimated_total_cycles = 0.0;  ///< weighted extrapolation
  double simulated_cost_cycles = 0.0;   ///< cycles actually simulated
  size_t kernels_simulated = 0;
};

/// Simulate only the plan's distinct invocations and extrapolate.
SampledSimResult SimulateSampled(const KernelTrace& trace,
                                 const core::SamplingPlan& plan,
                                 const SimConfig& config,
                                 const TraceSimOptions& options = {});

/// Previous invocation of the same kernel type, per invocation (-1 if
/// none): the dominant source of inherited L2 warmth.
std::vector<int64_t> PrevSameKernel(const KernelTrace& trace);

/// Logical bytes a sampled loop holds, for the "sim" category of
/// resource::AccountPeak: the simulator's state, the plan's distinct
/// invocations, and per invocation a previous-same-kernel index and a
/// measured-cycles slot. A function of (trace, config, plan) only.
uint64_t SampledLoopBytes(const Simulator& simulator, size_t distinct,
                          size_t invocations);

/// The untimed warm preamble before a sampled run times invocation `idx`:
/// flush the L2 when options.flush_l2_between_kernels is set; otherwise,
/// per options.warmup, `replay` the previous same-kernel invocation, then
/// the timeline predecessor unless that is the same invocation.
void WarmBeforeSample(Simulator& simulator, uint32_t idx,
                      const TraceSimOptions& options,
                      const std::vector<int64_t>& prev_same_kernel,
                      const std::function<void(uint32_t)>& replay);

}  // namespace stemroot::sim
