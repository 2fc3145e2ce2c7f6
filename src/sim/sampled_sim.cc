#include "sim/sampled_sim.h"

#include <unordered_map>

#include "common/resource.h"
#include "common/telemetry.h"

namespace stemroot::sim {

TraceSimResult SimulateTraceFull(const KernelTrace& trace,
                                 const SimConfig& config,
                                 const TraceSimOptions& options) {
  Simulator simulator(config);
  resource::AccountPeak("sim", simulator.ApproxStateBytes());
  TraceSimResult result;
  result.per_invocation_cycles.resize(trace.NumInvocations());
  for (uint32_t i = 0; i < trace.NumInvocations(); ++i) {
    if (options.flush_l2_between_kernels) simulator.FlushL2();
    const KernelSimResult one =
        simulator.SimulateKernel(trace.At(i), options.seed);
    result.per_invocation_cycles[i] = one.cycles;
    result.total_cycles += one.cycles;
    result.stats.Merge(one.stats);
  }
  telemetry::Count("sim.kernels_simulated", trace.NumInvocations());
  telemetry::Count("sim.warp_instructions", result.stats.warp_instructions);
  return result;
}

SampledSimResult SimulateSampled(const KernelTrace& trace,
                                 const core::SamplingPlan& plan,
                                 const SimConfig& config,
                                 const TraceSimOptions& options) {
  plan.Validate(trace.NumInvocations());
  const std::vector<uint32_t> distinct = plan.DistinctInvocations();
  const std::vector<int64_t> prev_same_kernel = PrevSameKernel(trace);
  Simulator simulator(config);
  resource::AccountPeak("sim", SampledLoopBytes(simulator, distinct.size(),
                                                trace.NumInvocations()));

  const auto replay = [&](uint32_t idx) {
    simulator.SimulateKernel(trace.At(idx), options.seed);
  };
  SampledSimResult result;
  std::vector<double> measured(trace.NumInvocations());
  for (uint32_t idx : distinct) {
    WarmBeforeSample(simulator, idx, options, prev_same_kernel, replay);
    measured[idx] = simulator.SimulateKernel(trace.At(idx), options.seed)
                        .cycles;
    result.simulated_cost_cycles += measured[idx];
  }
  result.kernels_simulated = distinct.size();
  result.estimated_total_cycles = plan.EstimateTotalUs(measured);

  telemetry::Count("sim.kernels_simulated", result.kernels_simulated);
  return result;
}

std::vector<int64_t> PrevSameKernel(const KernelTrace& trace) {
  std::vector<int64_t> prev(trace.NumInvocations(), -1);
  std::unordered_map<uint32_t, uint32_t> last_of_kernel;
  for (uint32_t i = 0; i < trace.NumInvocations(); ++i) {
    const uint32_t kernel_id = trace.At(i).kernel_id;
    auto it = last_of_kernel.find(kernel_id);
    if (it != last_of_kernel.end()) prev[i] = it->second;
    last_of_kernel[kernel_id] = i;
  }
  return prev;
}

uint64_t SampledLoopBytes(const Simulator& simulator, size_t distinct,
                          size_t invocations) {
  return simulator.ApproxStateBytes() + distinct * sizeof(uint32_t) +
         invocations * (sizeof(int64_t) + sizeof(double));
}

void WarmBeforeSample(Simulator& simulator, uint32_t idx,
                      const TraceSimOptions& options,
                      const std::vector<int64_t>& prev_same_kernel,
                      const std::function<void(uint32_t)>& replay) {
  if (options.flush_l2_between_kernels) {
    simulator.FlushL2();
    return;
  }
  const int64_t same = prev_same_kernel[idx];
  const bool warm_same =
      options.warmup == WarmupPolicy::kSameKernel ||
      options.warmup == WarmupPolicy::kSameKernelThenPredecessor;
  const bool warm_pred =
      options.warmup == WarmupPolicy::kPredecessor ||
      options.warmup == WarmupPolicy::kSameKernelThenPredecessor;
  if (warm_same && same >= 0) replay(static_cast<uint32_t>(same));
  if (warm_pred && idx > 0 && static_cast<int64_t>(idx) - 1 != same)
    replay(idx - 1);
}

}  // namespace stemroot::sim
