/// \file
/// Cross-cutting property sweeps (parameterized): invariants that must
/// hold for every GPU preset, behaviour archetype, workload, and random
/// DAG -- the glue the per-module tests don't cover.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "core/sampler.h"
#include "dag/generator.h"
#include "dag/sampler.h"
#include "eval/pipeline.h"
#include "eval/runner.h"
#include "hw/hardware_model.h"
#include "trace/chunked.h"
#include "workloads/context_model.h"
#include "workloads/rodinia.h"
#include "workloads/suite.h"

namespace stemroot {
namespace {

// ---------------------------------------------------------------------
// Hardware-model invariants across every GPU preset x archetype.
// ---------------------------------------------------------------------

using GpuArchetype = std::tuple<int, int>;  // (gpu index, archetype index)

class HardwareSweepTest : public ::testing::TestWithParam<GpuArchetype> {
 protected:
  static hw::GpuSpec Gpu(int index) {
    switch (index) {
      case 0: return hw::GpuSpec::Rtx2080();
      case 1: return hw::GpuSpec::H100();
      default: return hw::GpuSpec::H200();
    }
  }
  static KernelBehavior Archetype(int index) {
    switch (index) {
      case 0: return workloads::ComputeBoundBehavior(5e8, 8 << 20);
      case 1: return workloads::MemoryBoundBehavior(1e8, 32 << 20);
      default: return workloads::IrregularBehavior(5e7, 128 << 20);
    }
  }
};

TEST_P(HardwareSweepTest, TimingInvariantsHold) {
  const auto [gpu_index, archetype_index] = GetParam();
  hw::HardwareModel gpu(Gpu(gpu_index));
  const KernelBehavior behavior = Archetype(archetype_index);
  LaunchConfig launch;
  launch.grid_x = 512;
  launch.block_x = 256;

  // Positive, overhead-bounded expected time.
  const double expected = gpu.ExpectedTimeUs(behavior, launch);
  EXPECT_GE(expected, gpu.Spec().launch_overhead_us);

  // Doubling work never speeds the kernel up.
  KernelBehavior doubled = behavior;
  doubled.instructions *= 2;
  EXPECT_GE(gpu.ExpectedTimeUs(doubled, launch), expected * 0.999);

  // Memory-boundedness is a valid fraction and drives jitter width.
  const double boundedness = gpu.MemBoundedness(behavior, launch);
  EXPECT_GE(boundedness, 0.0);
  EXPECT_LE(boundedness, 1.0);

  // Jitter is unbiased: mean of samples ~ expected time.
  KernelInvocation inv;
  inv.behavior = behavior;
  inv.launch = launch;
  StreamingStats stats;
  for (uint64_t s = 0; s < 2000; ++s) {
    inv.seq = s;
    stats.Add(gpu.SampleTimeUs(inv, 11));
  }
  EXPECT_NEAR(stats.Mean() / expected, 1.0, 0.03);

  // Metrics stay in their domains.
  const KernelMetrics metrics = gpu.Metrics(inv, 3);
  for (size_t i = 0; i < KernelMetrics::kCount; ++i) {
    EXPECT_GE(metrics.Get(i), 0.0) << KernelMetrics::Name(i);
    if (KernelMetrics::IsRate(i)) {
      EXPECT_LE(metrics.Get(i), 1.0) << KernelMetrics::Name(i);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGpusAllArchetypes, HardwareSweepTest,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 3)));

// ---------------------------------------------------------------------
// End-to-end STEM bound across every CASIO workload.
// ---------------------------------------------------------------------

class SuiteBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(SuiteBoundTest, StemStaysWithinEpsilonOnEveryCasioWorkload) {
  const auto& names = workloads::SuiteWorkloads(workloads::SuiteId::kCasio);
  const std::string name = names[static_cast<size_t>(GetParam())];
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  const eval::Pipeline pipeline = eval::Pipeline::GenerateProfiled(
      {.suite = workloads::SuiteId::kCasio,
       .workload = name,
       .options = {.seed = 31, .size_scale = 0.1}},
      gpu);
  const KernelTrace& trace = pipeline.Trace();
  core::StemRootSampler sampler;
  const eval::EvalResult result =
      eval::EvaluateRepeated(sampler, trace, 3, 7);
  EXPECT_LT(result.error_pct, 5.0) << name;
  EXPECT_GT(result.speedup, 5.0) << name;
}

INSTANTIATE_TEST_SUITE_P(AllCasioWorkloads, SuiteBoundTest,
                         ::testing::Range(0, 11));

// ---------------------------------------------------------------------
// Serialization round-trip across suites.
// ---------------------------------------------------------------------

class RoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripTest, EveryRodiniaWorkloadRoundTrips) {
  const auto& names =
      workloads::SuiteWorkloads(workloads::SuiteId::kRodinia);
  const std::string name = names[static_cast<size_t>(GetParam())];
  KernelTrace original = workloads::MakeRodinia(name, 3, 0.1);
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  gpu.ProfileTrace(original, 1);

  // Through a multi-chunk SRTC file and through the in-memory encoding.
  const std::string path = testing::TempDir() + "/rt_" + name + ".srtc";
  SpillTraceChunked(original, path, original.NumInvocations() / 3 + 1);
  const KernelTrace from_file = AssembleTrace(FileChunkSource(path));
  const KernelTrace decoded = DecodeTrace(EncodeTrace(original));

  // Sampling the loaded trace gives the exact same plan.
  core::StemRootSampler sampler;
  const core::SamplingPlan a = sampler.BuildPlan(original, 9);
  for (const KernelTrace* loaded : {&from_file, &decoded}) {
    ASSERT_EQ(loaded->NumInvocations(), original.NumInvocations());
    EXPECT_DOUBLE_EQ(loaded->TotalDurationUs(), original.TotalDurationUs());
    const core::SamplingPlan b = sampler.BuildPlan(*loaded, 9);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (size_t i = 0; i < a.entries.size(); ++i)
      EXPECT_EQ(a.entries[i].invocation, b.entries[i].invocation);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRodiniaWorkloads, RoundTripTest,
                         ::testing::Range(0, 13));

// ---------------------------------------------------------------------
// DAG schedule lower bounds over random configurations.
// ---------------------------------------------------------------------

class DagScheduleBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(DagScheduleBoundTest, MakespanRespectsResourceLowerBounds) {
  Rng rng(DeriveSeed(123, static_cast<uint64_t>(GetParam())));
  dag::MultiGpuTrainingConfig config;
  config.devices = 2 + static_cast<uint32_t>(rng.NextBounded(7));
  config.layers = config.devices + static_cast<uint32_t>(rng.NextBounded(16));
  config.microbatches = 2 + static_cast<uint32_t>(rng.NextBounded(8));
  config.steps = 3 + static_cast<uint32_t>(rng.NextBounded(10));
  config.parallelism = rng.NextBool(0.5) ? dag::Parallelism::kData
                                         : dag::Parallelism::kPipeline;
  dag::DagWorkload workload =
      dag::MakeMultiGpuTraining(config, static_cast<uint64_t>(GetParam()));
  hw::HardwareModel gpu(hw::GpuSpec::H100());
  dag::NetworkModel network;
  dag::ProfileDag(workload, gpu, network, 5);

  const dag::ScheduleResult schedule = dag::ScheduleDag(workload);

  // Lower bound 1: the busiest device's compute load.
  std::vector<double> device_load(workload.NumDevices(), 0.0);
  double link_load = 0.0;
  for (const dag::DagOp& op : workload.Ops()) {
    if (op.kind == dag::OpKind::kCompute)
      device_load[op.device] += op.duration_us;
    else
      link_load += op.duration_us;
  }
  double max_device = 0.0;
  for (double load : device_load) max_device = std::max(max_device, load);
  EXPECT_GE(schedule.makespan_us, max_device * 0.999);
  // Lower bound 2: the serialized interconnect.
  EXPECT_GE(schedule.makespan_us, link_load * 0.999);
  // Upper bound: fully serial execution.
  EXPECT_LE(schedule.makespan_us, workload.TotalDurationUs() * 1.001);
  // Start times respect dependencies.
  for (uint32_t i = 0; i < workload.NumOps(); ++i)
    for (uint32_t dep : workload.At(i).deps)
      EXPECT_GE(schedule.start_us[i],
                schedule.start_us[dep] + workload.At(dep).duration_us -
                    1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomDags, DagScheduleBoundTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace stemroot
