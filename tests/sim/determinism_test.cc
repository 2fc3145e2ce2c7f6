/// \file
/// The determinism contract of the trace-simulation drivers (DESIGN.md
/// §12), pinned at the byte level:
///
///  - SimulateTraceFull, SimulateSampled and SimulateSampledIntra match
///    hand-rolled one-Simulator loops (full, sampled-with-warmup, and
///    intra-kernel) bit for bit.
///  - Golden values: exact serial cycle counts for fixed small workloads
///    are hard-coded below, so *any* merge-order or floating-point change
///    in the drivers trips a test instead of silently drifting every
///    experiment built on it.
///
/// Doubles are compared through their bit patterns (memcpy to uint64_t):
/// "deterministic" here means byte-identical manifests, not approximately
/// equal numbers. The suite keeps the name it had when these drivers ran
/// on a sharded lane engine, so the tests' history stays continuous.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/sampler.h"
#include "hw/hardware_model.h"
#include "sim/intra_kernel.h"
#include "sim/sampled_sim.h"
#include "workloads/rodinia.h"

namespace stemroot::sim {
namespace {

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// A profiled trace with a STEM sampling plan, ready for all three modes.
struct Workbench {
  KernelTrace trace;
  core::SamplingPlan plan;
  SimConfig config = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
  uint64_t seed = 1;
};

Workbench MakeBench(const std::string& workload, uint64_t trace_seed,
                    uint64_t sim_seed) {
  Workbench bench;
  bench.trace = workloads::MakeRodinia(workload, trace_seed, 0.05);
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  gpu.ProfileTrace(bench.trace, 1);
  core::StemRootSampler sampler;
  bench.plan = sampler.BuildPlan(bench.trace, 1);
  bench.seed = sim_seed;
  return bench;
}

TraceSimOptions MakeOptions(const Workbench& bench) {
  TraceSimOptions options;
  options.seed = bench.seed;
  return options;
}

// Golden values for gaussian and cfd (trace seed 5, scale 0.05, sim
// seed 1), harvested from the serial engine with printf("%.17g") --
// %.17g round-trips doubles exactly, so EXPECT_EQ compares full bit
// patterns. The build pins the FP environment (base x86-64, no
// -ffast-math, no FMA contraction), so these hold on every conforming
// toolchain.
constexpr uint64_t kGoldenInvocations = 458;
constexpr double kGoldenSerialTotalCycles = 7129089.8157142866;
constexpr double kGoldenFirstKernelCycles = 20182.228571428572;
constexpr double kGoldenLastKernelCycles = 5157.25;
constexpr uint64_t kGoldenWarpInstructions = 1525360;
constexpr double kGoldenSampledEstimate = 7462740.6700000009;
// cfd has real cross-kernel L2 reuse, so its total also pins how L2
// state carries from one kernel to the next.
constexpr double kGoldenCfdSerialTotalCycles = 42382483.522857152;
// H100's L2 has 25,600 sets, so its lookups take the general `%` / `/`
// set-index path (every rtx2080 geometry is a power of two and takes the
// mask/shift path). gaussian, trace seed 5, scale 0.05, sim seed 1, full
// simulation on one Simulator.
constexpr double kGoldenH100TotalCycles = 7286898.160579104;
constexpr uint64_t kGoldenH100L2Digest = 0x6f9c944cd38824eeull;

/// The (workload, trace seed, sim seed) roster every reference test runs
/// over -- three distinct suites x seeds per the test plan.
struct Combo {
  const char* workload;
  uint64_t trace_seed;
  uint64_t sim_seed;
};
constexpr Combo kCombos[] = {
    {"cfd", 5, 1},
    {"hotspot", 7, 7},
    {"lud", 11, 42},
};

// ---------------------------------------------------------------------------
// The drivers are the hand-rolled serial loops.
// ---------------------------------------------------------------------------

TEST(ShardedDeterminismTest, OneShardMatchesHandRolledFullLoop) {
  for (const Combo& combo : kCombos) {
    SCOPED_TRACE(combo.workload);
    const Workbench bench =
        MakeBench(combo.workload, combo.trace_seed, combo.sim_seed);
    const TraceSimOptions options = MakeOptions(bench);
    const TraceSimResult engine =
        SimulateTraceFull(bench.trace, bench.config, options);

    // The reference algorithm: one Simulator stepping the timeline in
    // order, L2 persisting across kernels.
    Simulator simulator(bench.config);
    double total = 0.0;
    ASSERT_EQ(engine.per_invocation_cycles.size(),
              bench.trace.NumInvocations());
    for (uint32_t i = 0; i < bench.trace.NumInvocations(); ++i) {
      const KernelSimResult one =
          simulator.SimulateKernel(bench.trace.At(i), options.seed);
      EXPECT_EQ(Bits(engine.per_invocation_cycles[i]), Bits(one.cycles))
          << "invocation " << i;
      total += one.cycles;
    }
    EXPECT_EQ(Bits(engine.total_cycles), Bits(total));
  }
}

TEST(ShardedDeterminismTest, OneShardMatchesHandRolledSampledLoop) {
  for (const Combo& combo : kCombos) {
    SCOPED_TRACE(combo.workload);
    const Workbench bench =
        MakeBench(combo.workload, combo.trace_seed, combo.sim_seed);
    const TraceSimOptions options = MakeOptions(bench);
    const SampledSimResult engine =
        SimulateSampled(bench.trace, bench.plan, bench.config, options);

    // Reference: selected invocations in timeline order on one Simulator,
    // each preceded by the default warmup (previous same-kernel launch,
    // then the immediate predecessor), warmups untimed.
    std::vector<char> selected(bench.trace.NumInvocations(), 0);
    for (uint32_t idx : bench.plan.DistinctInvocations()) selected[idx] = 1;
    std::vector<int64_t> prev_same(bench.trace.NumInvocations(), -1);
    {
      std::vector<int64_t> last(1u << 16, -1);
      for (uint32_t i = 0; i < bench.trace.NumInvocations(); ++i) {
        const uint32_t kernel_id = bench.trace.At(i).kernel_id;
        ASSERT_LT(kernel_id, last.size());
        prev_same[i] = last[kernel_id];
        last[kernel_id] = i;
      }
    }
    Simulator simulator(bench.config);
    std::vector<double> measured(bench.trace.NumInvocations(), 0.0);
    double cost = 0.0;
    size_t kernels = 0;
    for (uint32_t i = 0; i < bench.trace.NumInvocations(); ++i) {
      if (!selected[i]) continue;
      if (prev_same[i] >= 0)
        simulator.SimulateKernel(
            bench.trace.At(static_cast<uint32_t>(prev_same[i])),
            options.seed);
      if (i > 0 && prev_same[i] != static_cast<int64_t>(i) - 1)
        simulator.SimulateKernel(bench.trace.At(i - 1), options.seed);
      const KernelSimResult one =
          simulator.SimulateKernel(bench.trace.At(i), options.seed);
      measured[i] = one.cycles;
      cost += one.cycles;
      ++kernels;
    }
    double estimate = 0.0;
    for (const core::SampleEntry& entry : bench.plan.entries)
      estimate += entry.weight * measured[entry.invocation];

    EXPECT_EQ(Bits(engine.estimated_total_cycles), Bits(estimate));
    EXPECT_EQ(Bits(engine.simulated_cost_cycles), Bits(cost));
    EXPECT_EQ(engine.kernels_simulated, kernels);
  }
}

TEST(ShardedDeterminismTest, OneShardMatchesHandRolledIntraLoop) {
  const Workbench bench = MakeBench("cfd", 5, 1);
  const TraceSimOptions options = MakeOptions(bench);
  const IntraKernelOptions intra;
  const CombinedSimResult engine = SimulateSampledIntra(
      bench.trace, bench.plan, bench.config, options, intra);

  std::vector<char> selected(bench.trace.NumInvocations(), 0);
  for (uint32_t idx : bench.plan.DistinctInvocations()) selected[idx] = 1;
  std::vector<int64_t> prev_same(bench.trace.NumInvocations(), -1);
  std::vector<int64_t> last(1u << 16, -1);
  for (uint32_t i = 0; i < bench.trace.NumInvocations(); ++i) {
    const uint32_t kernel_id = bench.trace.At(i).kernel_id;
    ASSERT_LT(kernel_id, last.size());
    prev_same[i] = last[kernel_id];
    last[kernel_id] = i;
  }
  Simulator simulator(bench.config);
  std::vector<double> measured(bench.trace.NumInvocations(), 0.0);
  double cost = 0.0;
  size_t kernels = 0;
  size_t wave_sampled = 0;
  for (uint32_t i = 0; i < bench.trace.NumInvocations(); ++i) {
    if (!selected[i]) continue;
    // Warmup replays are themselves wave-sampled in this mode.
    if (prev_same[i] >= 0)
      SimulateKernelIntra(simulator,
                          bench.trace.At(static_cast<uint32_t>(prev_same[i])),
                          options.seed, intra);
    if (i > 0 && prev_same[i] != static_cast<int64_t>(i) - 1)
      SimulateKernelIntra(simulator, bench.trace.At(i - 1), options.seed,
                          intra);
    const IntraKernelResult one =
        SimulateKernelIntra(simulator, bench.trace.At(i), options.seed, intra);
    measured[i] = one.estimated_cycles;
    cost += one.simulated_cycles;
    ++kernels;
    if (one.sampled) ++wave_sampled;
  }
  double estimate = 0.0;
  for (const core::SampleEntry& entry : bench.plan.entries)
    estimate += entry.weight * measured[entry.invocation];

  EXPECT_EQ(Bits(engine.estimated_total_cycles), Bits(estimate));
  EXPECT_EQ(Bits(engine.simulated_cost_cycles), Bits(cost));
  EXPECT_EQ(engine.kernels_simulated, kernels);
  EXPECT_EQ(engine.kernels_wave_sampled, wave_sampled);
}

TEST(ShardedDeterminismTest, FlushOptionStillSerialEquivalent) {
  const Workbench bench = MakeBench("hotspot", 7, 7);
  TraceSimOptions options = MakeOptions(bench);
  options.flush_l2_between_kernels = true;
  const TraceSimResult engine =
      SimulateTraceFull(bench.trace, bench.config, options);

  Simulator simulator(bench.config);
  double total = 0.0;
  for (uint32_t i = 0; i < bench.trace.NumInvocations(); ++i) {
    simulator.FlushL2();
    total += simulator.SimulateKernel(bench.trace.At(i), options.seed).cycles;
  }
  EXPECT_EQ(Bits(engine.total_cycles), Bits(total));
}

// ---------------------------------------------------------------------------
// Golden values. Exact doubles harvested from the serial drivers on x86-64
// (printf %.17g round-trips bit-exactly); any change in merge order or
// kernel math must trip these.
// ---------------------------------------------------------------------------

TEST(ShardedDeterminismTest, GoldenSerialCycleCountsPinned) {
  const Workbench bench = MakeBench("gaussian", 5, 1);
  const TraceSimOptions options = MakeOptions(bench);
  const TraceSimResult full =
      SimulateTraceFull(bench.trace, bench.config, options);
  ASSERT_EQ(bench.trace.NumInvocations(), kGoldenInvocations);
  EXPECT_EQ(full.total_cycles, kGoldenSerialTotalCycles);
  EXPECT_EQ(full.per_invocation_cycles.front(), kGoldenFirstKernelCycles);
  EXPECT_EQ(full.per_invocation_cycles.back(), kGoldenLastKernelCycles);
  EXPECT_EQ(full.stats.warp_instructions, kGoldenWarpInstructions);

  const SampledSimResult sampled =
      SimulateSampled(bench.trace, bench.plan, bench.config, options);
  EXPECT_EQ(sampled.estimated_total_cycles, kGoldenSampledEstimate);
}

TEST(ShardedDeterminismTest, GoldenShardedCycleCountsPinned) {
  // cfd has real inter-kernel L2 reuse, so its total pins the one shared
  // L2 that every invocation now runs against (the removed lane model
  // gave each lane a private L2 and landed elsewhere).
  const Workbench bench = MakeBench("cfd", 5, 1);
  const TraceSimOptions options = MakeOptions(bench);
  const TraceSimResult first =
      SimulateTraceFull(bench.trace, bench.config, options);
  const TraceSimResult second =
      SimulateTraceFull(bench.trace, bench.config, options);
  EXPECT_EQ(first.total_cycles, kGoldenCfdSerialTotalCycles);
  EXPECT_EQ(Bits(second.total_cycles), Bits(first.total_cycles));
  EXPECT_EQ(second.stats.warp_instructions, first.stats.warp_instructions);
}

TEST(ShardedDeterminismTest, GoldenH100FullSimulationPinned) {
  const SimConfig config = SimConfig::FromSpec(hw::GpuSpec::H100());
  const uint64_t l2_sets = config.l2_bytes / config.line_bytes /
                           config.l2_assoc;
  ASSERT_NE(l2_sets & (l2_sets - 1), 0u);  // not a power of two
  Simulator simulator(config);
  const KernelTrace trace = workloads::MakeRodinia("gaussian", 5, 0.05);
  double total = 0.0;
  for (uint32_t i = 0; i < trace.NumInvocations(); ++i)
    total += simulator.SimulateKernel(trace.At(i), 1).cycles;
  EXPECT_EQ(total, kGoldenH100TotalCycles);
  EXPECT_EQ(simulator.L2Digest(), kGoldenH100L2Digest);
}

}  // namespace
}  // namespace stemroot::sim
