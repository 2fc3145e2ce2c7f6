#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/sampler.h"
#include "hw/hardware_model.h"
#include "sim/sampled_sim.h"
#include "workloads/context_model.h"
#include "workloads/rodinia.h"

namespace stemroot::sim {
namespace {

KernelInvocation MakeInvocation(const KernelBehavior& behavior,
                                uint32_t ctas, uint32_t threads,
                                uint64_t seq = 0) {
  KernelInvocation inv;
  inv.behavior = behavior;
  inv.launch.grid_x = ctas;
  inv.launch.block_x = threads;
  inv.seq = seq;
  return inv;
}

class SimulatorTest : public ::testing::Test {
 protected:
  SimConfig config_ = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
};

TEST_F(SimulatorTest, ConfigFromSpecConvertsUnits) {
  const hw::GpuSpec spec = hw::GpuSpec::Rtx2080();
  EXPECT_EQ(config_.num_sms, spec.num_sms);
  EXPECT_EQ(config_.l1_bytes, spec.l1_bytes);
  // 360 ns at 1.71 GHz ~ 616 cycles.
  EXPECT_NEAR(config_.dram_latency, spec.dram_latency_ns * spec.clock_ghz,
              1.0);
  // 448 GB/s at 1.71 GHz ~ 262 B/cycle.
  EXPECT_NEAR(config_.dram_bytes_per_cycle, 262.0, 1.0);
  EXPECT_NO_THROW(config_.Validate());
}

TEST_F(SimulatorTest, PlanWavesRespectsOccupancy) {
  LaunchConfig launch;
  launch.grid_x = config_.num_sms * 10;  // 10 CTAs for the simulated SM
  launch.block_x = 256;                  // 8 warps per CTA
  const WavePlan plan = PlanWaves(launch, config_);
  EXPECT_EQ(plan.ctas, 10u);
  EXPECT_EQ(plan.warps_per_cta, 8u);
  for (uint32_t warps : plan.wave_warps)
    EXPECT_LE(warps, config_.max_warps_per_sm);
  uint64_t total = 0;
  for (uint32_t warps : plan.wave_warps) total += warps;
  EXPECT_EQ(total, 10u * 8u);
}

TEST_F(SimulatorTest, PlanWavesRejectsOversizedCta) {
  LaunchConfig launch;
  launch.block_x = (config_.max_warps_per_sm + 1) * config_.warp_size;
  EXPECT_THROW(PlanWaves(launch, config_), std::invalid_argument);
}

TEST_F(SimulatorTest, MoreWorkMoreCycles) {
  Simulator simulator(config_);
  const auto small = MakeInvocation(
      workloads::ComputeBoundBehavior(50'000'000, 1 << 20), 92, 256);
  const auto big = MakeInvocation(
      workloads::ComputeBoundBehavior(500'000'000, 1 << 20), 92, 256);
  EXPECT_LT(simulator.SimulateKernel(small, 1).cycles,
            simulator.SimulateKernel(big, 1).cycles);
}

TEST_F(SimulatorTest, DeterministicGivenSeed) {
  const auto inv = MakeInvocation(
      workloads::MemoryBoundBehavior(50'000'000, 8 << 20), 92, 256);
  Simulator a(config_);
  Simulator b(config_);
  EXPECT_DOUBLE_EQ(a.SimulateKernel(inv, 3).cycles,
                   b.SimulateKernel(inv, 3).cycles);
}

TEST_F(SimulatorTest, SmallerCacheSlowsMemoryBoundKernel) {
  // Working set ~3 MB: resident in the 4 MB baseline L2, thrashing in the
  // 1 MB variant. Capacity shows on *warm* launches (a cold kernel only
  // streams its footprint once), so measure the second launch.
  KernelBehavior behavior =
      workloads::MemoryBoundBehavior(200'000'000, 3 << 20);
  behavior.locality = 0.5f;
  const auto first = MakeInvocation(behavior, 460, 256, 0);
  const auto second = MakeInvocation(behavior, 460, 256, 1);
  Simulator base(config_);
  Simulator small(SimConfig::FromSpec(
      hw::GpuSpec::Rtx2080().WithCacheScale(0.25)));
  base.SimulateKernel(first, 1);
  small.SimulateKernel(first, 1);
  EXPECT_GT(small.SimulateKernel(second, 1).cycles,
            base.SimulateKernel(second, 1).cycles * 1.5);
}

TEST_F(SimulatorTest, CacheSizeIrrelevantForComputeBoundKernel) {
  const auto inv = MakeInvocation(
      workloads::ComputeBoundBehavior(100'000'000, 1 << 20), 92, 256);
  Simulator base(config_);
  Simulator small(SimConfig::FromSpec(
      hw::GpuSpec::Rtx2080().WithCacheScale(0.25)));
  const double ratio = small.SimulateKernel(inv, 1).cycles /
                       base.SimulateKernel(inv, 1).cycles;
  EXPECT_NEAR(ratio, 1.0, 0.1);
}

TEST_F(SimulatorTest, MoreSmsSpeedUpBigComputeKernels) {
  const auto inv = MakeInvocation(
      workloads::ComputeBoundBehavior(2'000'000'000, 2 << 20), 920, 256);
  Simulator base(config_);
  Simulator doubled(
      SimConfig::FromSpec(hw::GpuSpec::Rtx2080().WithSmScale(2.0)));
  EXPECT_LT(doubled.SimulateKernel(inv, 1).cycles,
            base.SimulateKernel(inv, 1).cycles * 0.7);
}

TEST_F(SimulatorTest, StatsAreConsistent) {
  Simulator simulator(config_);
  const auto inv = MakeInvocation(
      workloads::MemoryBoundBehavior(50'000'000, 8 << 20), 92, 256);
  const KernelSimResult result = simulator.SimulateKernel(inv, 1);
  EXPECT_GT(result.stats.warp_instructions, 0u);
  EXPECT_GT(result.stats.l1_hits + result.stats.l1_misses, 0u);
  // L2 accesses = L1 misses.
  EXPECT_EQ(result.stats.l2_hits + result.stats.l2_misses,
            result.stats.l1_misses);
  // DRAM bytes = L2 misses * line size.
  EXPECT_EQ(result.stats.dram_bytes,
            result.stats.l2_misses * config_.line_bytes);
  EXPECT_GT(result.Microseconds(config_), 0.0);
}

TEST_F(SimulatorTest, RepeatedKernelsReuseL2) {
  // Second launch of the same kernel (same data region) hits L2 content
  // left by the first -- the inter-kernel reuse of Sec. 6.2.
  Simulator simulator(config_);
  KernelBehavior b = workloads::MemoryBoundBehavior(20'000'000, 2 << 20);
  const auto first = MakeInvocation(b, 92, 256, 0);
  auto second = MakeInvocation(b, 92, 256, 1);
  const double cold = simulator.SimulateKernel(first, 1).cycles;
  const double warm = simulator.SimulateKernel(second, 1).cycles;
  EXPECT_LT(warm, cold);
  // With a flush in between, the second launch is cold again.
  Simulator flushed(config_);
  flushed.SimulateKernel(first, 1);
  flushed.FlushL2();
  const double reflushed = flushed.SimulateKernel(second, 1).cycles;
  EXPECT_GT(reflushed, warm);
}

TEST(TraceSimTest, FullSimulationSumsPerInvocation) {
  KernelTrace trace = workloads::MakeRodinia("lud", 5, 0.05);
  const SimConfig config = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
  const TraceSimResult result = SimulateTraceFull(trace, config);
  ASSERT_EQ(result.per_invocation_cycles.size(), trace.NumInvocations());
  double sum = 0.0;
  for (double c : result.per_invocation_cycles) {
    EXPECT_GT(c, 0.0);
    sum += c;
  }
  EXPECT_NEAR(sum, result.total_cycles, 1e-6 * sum);
}

TEST(TraceSimTest, SampledEstimateTracksFullSimulation) {
  KernelTrace trace = workloads::MakeRodinia("gaussian", 5, 0.05);
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  gpu.ProfileTrace(trace, 1);

  const SimConfig config = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
  const TraceSimResult full = SimulateTraceFull(trace, config);

  core::StemRootSampler sampler;
  const core::SamplingPlan plan = sampler.BuildPlan(trace, 1);
  const SampledSimResult sampled = SimulateSampled(trace, plan, config);

  EXPECT_LT(sampled.kernels_simulated, trace.NumInvocations());
  const double error = std::abs(sampled.estimated_total_cycles -
                                full.total_cycles) / full.total_cycles;
  EXPECT_LT(error, 0.15);
  EXPECT_LT(sampled.simulated_cost_cycles, full.total_cycles);
}

TEST(TraceSimTest, L2FlushOptionOnlyAddsCycles) {
  KernelTrace trace = workloads::MakeRodinia("hotspot", 5, 0.05);
  const SimConfig config = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
  TraceSimOptions warm;
  TraceSimOptions flush;
  flush.flush_l2_between_kernels = true;
  const double warm_cycles = SimulateTraceFull(trace, config, warm).total_cycles;
  const double flush_cycles =
      SimulateTraceFull(trace, config, flush).total_cycles;
  EXPECT_GE(flush_cycles, warm_cycles);
}

}  // namespace
}  // namespace stemroot::sim

namespace stemroot::sim {
namespace {

TEST(WarmupPolicyTest, RicherWarmupReducesEstimationError) {
  // The Sec. 6.2 extension: warmup with the previous same-kernel launch
  // plus the predecessor must estimate at least as well as no warmup on a
  // workload with strong inter-launch reuse.
  KernelTrace trace = workloads::MakeRodinia("cfd", 5, 0.05);
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  gpu.ProfileTrace(trace, 1);
  const SimConfig config = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
  const TraceSimResult full = SimulateTraceFull(trace, config);
  core::StemRootSampler sampler;
  const core::SamplingPlan plan = sampler.BuildPlan(trace, 1);

  auto error_with = [&](WarmupPolicy policy) {
    TraceSimOptions options;
    options.warmup = policy;
    const SampledSimResult sampled =
        SimulateSampled(trace, plan, config, options);
    return std::abs(sampled.estimated_total_cycles - full.total_cycles) /
           full.total_cycles;
  };
  const double cold = error_with(WarmupPolicy::kNone);
  const double both = error_with(WarmupPolicy::kSameKernelThenPredecessor);
  EXPECT_LT(both, cold);
  EXPECT_LT(both, 0.10);
}

TEST(WarmupPolicyTest, PoliciesAreDistinct) {
  KernelTrace trace = workloads::MakeRodinia("cfd", 5, 0.05);
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  gpu.ProfileTrace(trace, 1);
  const SimConfig config = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
  core::StemRootSampler sampler;
  const core::SamplingPlan plan = sampler.BuildPlan(trace, 1);

  auto cost_with = [&](WarmupPolicy policy) {
    TraceSimOptions options;
    options.warmup = policy;
    return SimulateSampled(trace, plan, config, options)
        .estimated_total_cycles;
  };
  // Different L2 preparation must yield measurably different estimates.
  EXPECT_NE(cost_with(WarmupPolicy::kNone),
            cost_with(WarmupPolicy::kSameKernel));
  EXPECT_NE(cost_with(WarmupPolicy::kPredecessor),
            cost_with(WarmupPolicy::kSameKernelThenPredecessor));
}

}  // namespace
}  // namespace stemroot::sim

namespace stemroot::sim {
namespace {

TEST(SimConfigTest, ValidationCatchesCorruption) {
  SimConfig config = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
  EXPECT_NO_THROW(config.Validate());

  SimConfig bad = config;
  bad.num_sms = 0;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = config;
  bad.line_bytes = 100;  // not a power of two
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = config;
  bad.l1_assoc = 0;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = config;
  bad.dram_bytes_per_cycle = 0.0;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = config;
  bad.issue_width = 0.0;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  // NaN slips past a bare `x <= 0` check; infinities are no rate either.
  for (const double v : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    SCOPED_TRACE(v);
    bad = config;
    bad.clock_ghz = v;
    EXPECT_THROW(bad.Validate(), std::invalid_argument);
    bad = config;
    bad.issue_width = v;
    EXPECT_THROW(bad.Validate(), std::invalid_argument);
    bad = config;
    bad.dram_bytes_per_cycle = v;
    EXPECT_THROW(bad.Validate(), std::invalid_argument);
  }
}

TEST(SimConfigTest, DramShareSplitsEvenly) {
  const SimConfig config = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
  EXPECT_NEAR(config.DramShareBytesPerCycle() * config.num_sms,
              config.dram_bytes_per_cycle, 1e-9);
}

TEST(SimConfigTest, H100HasMoreBandwidthPerSmThan2080) {
  const SimConfig rtx = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
  const SimConfig h100 = SimConfig::FromSpec(hw::GpuSpec::H100());
  EXPECT_GT(h100.DramShareBytesPerCycle(), rtx.DramShareBytesPerCycle());
}

}  // namespace
}  // namespace stemroot::sim
