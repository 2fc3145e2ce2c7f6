#include "eval/dse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/sampler.h"
#include "eval/manifest.h"
#include "eval/pipeline.h"
#include "eval/runner.h"

namespace stemroot::eval {
namespace {

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

TEST(DseTest, StandardVariantsMatchTableFour) {
  const auto variants = StandardDseVariants(hw::GpuSpec::Rtx2080());
  ASSERT_EQ(variants.size(), 5u);
  EXPECT_EQ(variants[0].name, "Baseline");
  EXPECT_EQ(variants[1].spec.l2_bytes,
            hw::GpuSpec::Rtx2080().l2_bytes * 2);
  EXPECT_EQ(variants[2].spec.l2_bytes,
            hw::GpuSpec::Rtx2080().l2_bytes / 2);
  EXPECT_EQ(variants[3].spec.num_sms,
            hw::GpuSpec::Rtx2080().num_sms * 2);
  EXPECT_EQ(variants[4].spec.num_sms,
            hw::GpuSpec::Rtx2080().num_sms / 2);
}

TEST(DseTest, RetimePreservesOrderAndPositivity) {
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  const Pipeline pipeline = Pipeline::GenerateProfiled(
      {.suite = workloads::SuiteId::kRodinia,
       .workload = "lud",
       .options = {.seed = 3, .size_scale = 0.1}},
      gpu);
  const KernelTrace& trace = pipeline.Trace();
  const auto durations = RetimeTrace(trace, AnalyticTiming(gpu, 42));
  ASSERT_EQ(durations.size(), trace.NumInvocations());
  for (double d : durations) EXPECT_GT(d, 0.0);
}

TEST(DseTest, PlanBuiltOnBaselineTransfersToVariant) {
  // The Sec. 5.4 property: plans from the baseline profile keep low error
  // when ground truth is re-timed on modified hardware.
  hw::HardwareModel base(hw::GpuSpec::Rtx2080());
  KernelTrace trace = Pipeline::GenerateProfiled(
                          {.suite = workloads::SuiteId::kCasio,
                           .workload = "bert_infer",
                           .options = {.seed = 3, .size_scale = 0.02}},
                          base)
                          .Trace();

  core::StemRootSampler stem;
  const core::SamplingPlan plan = stem.BuildPlan(trace, 1);

  for (const DseVariant& variant :
       StandardDseVariants(hw::GpuSpec::Rtx2080())) {
    hw::HardwareModel gpu(variant.spec);
    const auto durations = RetimeTrace(trace, AnalyticTiming(gpu, 99));
    const EvalResult result =
        EvaluatePlanOnDurations(plan, durations, trace.WorkloadName());
    EXPECT_LT(result.error_pct, 8.0) << variant.name;
  }
}

TEST(DseTest, CrossGpuH100ToH200StaysAccurate) {
  // Fig. 13: sampling decided on H100, evaluated on H200.
  hw::HardwareModel h100(hw::GpuSpec::H100());
  KernelTrace trace = Pipeline::GenerateProfiled(
                          {.suite = workloads::SuiteId::kCasio,
                           .workload = "bert_infer",
                           .options = {.seed = 5, .size_scale = 0.02}},
                          h100)
                          .Trace();
  core::StemRootSampler stem;
  const core::SamplingPlan plan = stem.BuildPlan(trace, 1);

  hw::HardwareModel h200(hw::GpuSpec::H200());
  const auto durations = RetimeTrace(trace, AnalyticTiming(h200, 7));
  const EvalResult result =
      EvaluatePlanOnDurations(plan, durations, "bert_infer");
  EXPECT_LT(result.error_pct, 10.0);
}

// ---------------------------------------------------------------------------
// DseSweep: the batched concurrent sweep (ISSUE satellite 4). The whole
// point grid runs concurrently, yet every result is byte-identical to a
// sequential loop of single-point evaluations.
// ---------------------------------------------------------------------------

/// Two small profiled Rodinia workloads with STEM plans, shared by all
/// sweep tests (building them dominates the test cost).
class DseSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
    static std::vector<KernelTrace> traces;
    static std::vector<std::vector<core::SamplingPlan>> plans;
    for (const char* name : {"hotspot", "lud"})
      traces.push_back(Pipeline::GenerateProfiled(
                           {.suite = workloads::SuiteId::kRodinia,
                            .workload = name,
                            .options = {.seed = 3, .size_scale = 0.05}},
                           gpu)
                           .Trace());
    core::StemRootSampler stem;
    for (const KernelTrace& trace : traces)
      plans.push_back({stem.BuildPlan(trace, 1)});
    static std::vector<DseWorkload> workloads_storage;
    for (size_t w = 0; w < traces.size(); ++w)
      workloads_storage.push_back({&traces[w], plans[w]});
    workloads_ = &workloads_storage;
    // Three variants keep the full-simulation cost in check.
    static std::vector<DseVariant> variants_storage =
        StandardDseVariants(hw::GpuSpec::Rtx2080());
    variants_storage.resize(3);
    variants_ = &variants_storage;
  }

  static const std::vector<DseWorkload>* workloads_;
  static const std::vector<DseVariant>* variants_;
};

const std::vector<DseWorkload>* DseSweepTest::workloads_ = nullptr;
const std::vector<DseVariant>* DseSweepTest::variants_ = nullptr;

void ExpectPointsIdentical(const DsePointResult& a, const DsePointResult& b) {
  EXPECT_EQ(a.variant, b.variant);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.variant_index, b.variant_index);
  EXPECT_EQ(a.workload_index, b.workload_index);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(Bits(a.full_cycles), Bits(b.full_cycles));
  ASSERT_EQ(a.methods.size(), b.methods.size());
  for (size_t m = 0; m < a.methods.size(); ++m) {
    EXPECT_EQ(a.methods[m].method, b.methods[m].method);
    EXPECT_EQ(Bits(a.methods[m].estimated_cycles),
              Bits(b.methods[m].estimated_cycles));
    EXPECT_EQ(Bits(a.methods[m].cost_cycles), Bits(b.methods[m].cost_cycles));
    EXPECT_EQ(a.methods[m].kernels_simulated, b.methods[m].kernels_simulated);
    EXPECT_EQ(Bits(a.methods[m].error_pct), Bits(b.methods[m].error_pct));
  }
}

TEST_F(DseSweepTest, ConcurrentSweepMatchesSequentialPointLoop) {
  DseSweepOptions options;
  options.seed = 99;
  options.sweep_threads = 4;
  const DseSweep sweep(*variants_, options);
  const DseSweepResult concurrent = sweep.Run(*workloads_);
  ASSERT_EQ(concurrent.points.size(),
            variants_->size() * workloads_->size());

  for (size_t vi = 0; vi < variants_->size(); ++vi)
    for (size_t wi = 0; wi < workloads_->size(); ++wi) {
      SCOPED_TRACE((*variants_)[vi].name + "/" +
                   (*workloads_)[wi].trace->WorkloadName());
      const DsePointResult serial =
          sweep.RunPoint(vi, (*workloads_)[wi], wi);
      ExpectPointsIdentical(concurrent.At(vi, wi), serial);
    }
}

TEST_F(DseSweepTest, SweepThreadCountNeverChangesResults) {
  DseSweepOptions options;
  options.seed = 99;
  options.sweep_threads = 1;
  const DseSweepResult one = DseSweep(*variants_, options).Run(*workloads_);
  for (int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    options.sweep_threads = threads;
    const DseSweepResult many =
        DseSweep(*variants_, options).Run(*workloads_);
    ASSERT_EQ(many.points.size(), one.points.size());
    for (size_t i = 0; i < one.points.size(); ++i)
      ExpectPointsIdentical(one.points[i], many.points[i]);
  }
}

TEST_F(DseSweepTest, PointSeedsAreStableAndDistinct) {
  DseSweepOptions options;
  options.seed = 1234;
  const DseSweep sweep(*variants_, options);
  std::vector<uint64_t> seeds;
  for (size_t vi = 0; vi < variants_->size(); ++vi)
    for (size_t wi = 0; wi < workloads_->size(); ++wi)
      seeds.push_back(sweep.PointSeed(vi, wi));
  for (size_t i = 0; i < seeds.size(); ++i)
    for (size_t j = i + 1; j < seeds.size(); ++j)
      EXPECT_NE(seeds[i], seeds[j]) << i << " vs " << j;
  // Stable across sweep instances (it is a pure seed derivation).
  EXPECT_EQ(DseSweep(*variants_, options).PointSeed(1, 1),
            sweep.PointSeed(1, 1));
}

TEST_F(DseSweepTest, AccessorsRejectBadIndices) {
  DseSweepOptions options;
  const DseSweep sweep(*variants_, options);
  const DseSweepResult result = sweep.Run(*workloads_);
  EXPECT_THROW(result.At(variants_->size(), 0), std::out_of_range);
  EXPECT_THROW(result.At(0, workloads_->size()), std::out_of_range);
  EXPECT_THROW(result.MeanErrorPct(0, "no-such-method"), std::out_of_range);
  EXPECT_GT(result.MeanErrorPct(0, "STEM"), 0.0);
  EXPECT_THROW(DseSweep({}, options), std::invalid_argument);
  DseSweepOptions bad = options;
  bad.sweep_threads = -2;
  EXPECT_THROW(DseSweep(*variants_, bad), std::invalid_argument);
}

}  // namespace
}  // namespace stemroot::eval
