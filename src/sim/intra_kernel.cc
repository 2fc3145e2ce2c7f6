#include "sim/intra_kernel.h"

#include <stdexcept>

#include "common/resource.h"
#include "common/telemetry.h"

namespace stemroot::sim {

void IntraKernelOptions::Validate() const {
  if (sample_waves == 0)
    throw std::invalid_argument("IntraKernelOptions: sample_waves == 0");
  if (min_waves_to_sample <= warmup_waves + sample_waves)
    throw std::invalid_argument(
        "IntraKernelOptions: min_waves_to_sample must exceed "
        "warmup_waves + sample_waves");
}

IntraKernelResult SimulateKernelIntra(Simulator& simulator,
                                      const KernelInvocation& inv,
                                      uint64_t seed,
                                      const IntraKernelOptions& options) {
  options.Validate();
  const double overhead_cycles =
      3.0 * simulator.Config().clock_ghz * 1e3;

  IntraKernelResult result;
  // The wave count is known from the launch geometry alone -- decide
  // whether to sample before simulating anything.
  result.total_waves =
      PlanWaves(inv.launch, simulator.Config()).wave_warps.size();
  const uint64_t prefix = options.warmup_waves + options.sample_waves;

  if (result.total_waves <= options.min_waves_to_sample) {
    // Short kernel: no gain from wave sampling, simulate fully.
    const WaveSimResult waves = simulator.SimulateKernelWaves(inv, seed, 0);
    for (double c : waves.wave_cycles) result.simulated_cycles += c;
    result.estimated_cycles = result.simulated_cycles + overhead_cycles;
    result.waves_simulated = waves.wave_cycles.size();
    result.sampled = false;
    return result;
  }

  const WaveSimResult waves =
      simulator.SimulateKernelWaves(inv, seed, prefix);
  result.waves_simulated = waves.wave_cycles.size();
  for (double c : waves.wave_cycles) result.simulated_cycles += c;

  // Extrapolate: warmup waves count at face value, the measured waves'
  // mean covers every remaining wave.
  double warmup_cycles = 0.0;
  for (uint64_t w = 0; w < options.warmup_waves; ++w)
    warmup_cycles += waves.wave_cycles[w];
  double measured = 0.0;
  for (uint64_t w = options.warmup_waves; w < prefix; ++w)
    measured += waves.wave_cycles[w];
  const double mean_wave =
      measured / static_cast<double>(options.sample_waves);
  const double remaining =
      static_cast<double>(waves.total_waves - options.warmup_waves);
  result.estimated_cycles =
      warmup_cycles + mean_wave * remaining + overhead_cycles;
  result.sampled = true;
  return result;
}

CombinedSimResult SimulateSampledIntra(
    const KernelTrace& trace, const core::SamplingPlan& plan,
    const SimConfig& config, const TraceSimOptions& trace_options,
    const IntraKernelOptions& intra_options) {
  plan.Validate(trace.NumInvocations());
  intra_options.Validate();
  const std::vector<uint32_t> distinct = plan.DistinctInvocations();
  const std::vector<int64_t> prev_same_kernel = PrevSameKernel(trace);
  Simulator simulator(config);
  resource::AccountPeak("sim", SampledLoopBytes(simulator, distinct.size(),
                                                trace.NumInvocations()));

  // Warmups are themselves wave-sampled.
  const auto replay = [&](uint32_t idx) {
    SimulateKernelIntra(simulator, trace.At(idx), trace_options.seed,
                        intra_options);
  };
  CombinedSimResult result;
  std::vector<double> measured(trace.NumInvocations());
  for (uint32_t idx : distinct) {
    WarmBeforeSample(simulator, idx, trace_options, prev_same_kernel, replay);
    const IntraKernelResult one = SimulateKernelIntra(
        simulator, trace.At(idx), trace_options.seed, intra_options);
    measured[idx] = one.estimated_cycles;
    result.simulated_cost_cycles += one.simulated_cycles;
    if (one.sampled) ++result.kernels_wave_sampled;
  }
  result.kernels_simulated = distinct.size();
  result.estimated_total_cycles = plan.EstimateTotalUs(measured);

  telemetry::Count("sim.kernels_simulated", result.kernels_simulated);
  telemetry::Count("sim.kernels_wave_sampled", result.kernels_wave_sampled);
  return result;
}

}  // namespace stemroot::sim
