#include <gtest/gtest.h>

#include "profiler/bbv_collector.h"
#include "profiler/metric_profiler.h"
#include "workloads/casio.h"

namespace stemroot::profiler {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = workloads::MakeCasio("bert_infer", 21, 0.02);
  }
  KernelTrace trace_;
};

TEST_F(ProfilerTest, PkaFeaturesBlindToLocalityOnlyContexts) {
  // layernorm contexts 0/1 differ only in cache locality; the 12
  // instruction-level metrics must (deliberately) not separate them
  // (paper Fig. 10's failure mode).
  const int64_t ln = trace_.FindKernel("layernorm_fw");
  ASSERT_GE(ln, 0);
  const KernelInvocation* c0 = nullptr;
  const KernelInvocation* c1 = nullptr;
  for (const auto& inv : trace_.Invocations()) {
    if (inv.kernel_id != ln) continue;
    if (inv.context_id == 0 && !c0) c0 = &inv;
    if (inv.context_id == 1 && !c1) c1 = &inv;
  }
  ASSERT_TRUE(c0 && c1);
  const PkaFeatures f0 = MetricProfiler::Extract(trace_, *c0);
  const PkaFeatures f1 = MetricProfiler::Extract(trace_, *c1);
  for (size_t i = 0; i < PkaFeatures::kDim; ++i) {
    // Instruction jitter moves counts slightly; features must be close,
    // far closer than the 2x+ execution-time separation.
    if (f1.values[i] != 0.0) {
      EXPECT_NEAR(f0.values[i] / f1.values[i], 1.0, 0.05)
          << "feature " << i;
    }
  }
}

TEST_F(ProfilerTest, PkaFeaturesSeparateDifferentKernels) {
  const int64_t gemm = trace_.FindKernel("sgemm_128x64_nn");
  const int64_t ln = trace_.FindKernel("layernorm_fw");
  ASSERT_GE(gemm, 0);
  ASSERT_GE(ln, 0);
  const KernelInvocation* a = nullptr;
  const KernelInvocation* b = nullptr;
  for (const auto& inv : trace_.Invocations()) {
    if (inv.kernel_id == gemm && !a) a = &inv;
    if (inv.kernel_id == ln && !b) b = &inv;
  }
  ASSERT_TRUE(a && b);
  const PkaFeatures fa = MetricProfiler::Extract(trace_, *a);
  const PkaFeatures fb = MetricProfiler::Extract(trace_, *b);
  // Dynamic instruction counts (log2, index 0) differ by far.
  EXPECT_GT(std::abs(fa.values[0] - fb.values[0]), 1.0);
}

TEST_F(ProfilerTest, BbvDimensionMatchesKernelCfg) {
  const KernelInvocation& inv = trace_.At(0);
  const Bbv bbv = BbvCollector::Extract(trace_, inv);
  EXPECT_EQ(bbv.size(), trace_.TypeOf(inv).num_basic_blocks);
  for (double count : bbv) EXPECT_GT(count, 0.0);
}

TEST_F(ProfilerTest, BbvSeparatesInputScaleContexts) {
  // sgemm contexts differ in input_scale -> BBVs must differ (Photon can
  // cluster these correctly).
  const int64_t gemm = trace_.FindKernel("sgemm_128x64_nn");
  ASSERT_GE(gemm, 0);
  const KernelInvocation* c0 = nullptr;
  const KernelInvocation* c2 = nullptr;
  for (const auto& inv : trace_.Invocations()) {
    if (inv.kernel_id != gemm) continue;
    if (inv.context_id == 0 && !c0) c0 = &inv;
    if (inv.context_id == 2 && !c2) c2 = &inv;
  }
  ASSERT_TRUE(c0 && c2);
  const double dist = BbvCollector::NormalizedDistance(
      BbvCollector::Extract(trace_, *c0),
      BbvCollector::Extract(trace_, *c2));
  EXPECT_GT(dist, 0.1);
}

TEST_F(ProfilerTest, BbvBlindToLocalityOnlyContexts) {
  const int64_t ln = trace_.FindKernel("layernorm_fw");
  ASSERT_GE(ln, 0);
  const KernelInvocation* c0 = nullptr;
  const KernelInvocation* c1 = nullptr;
  for (const auto& inv : trace_.Invocations()) {
    if (inv.kernel_id != ln) continue;
    if (inv.context_id == 0 && !c0) c0 = &inv;
    if (inv.context_id == 1 && !c1) c1 = &inv;
  }
  ASSERT_TRUE(c0 && c1);
  const double dist = BbvCollector::NormalizedDistance(
      BbvCollector::Extract(trace_, *c0),
      BbvCollector::Extract(trace_, *c1));
  EXPECT_LT(dist, 0.05);
}

TEST(BbvDistanceTest, MetricProperties) {
  const Bbv a = {1.0, 2.0, 3.0};
  const Bbv b = {3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(BbvCollector::NormalizedDistance(a, a), 0.0);
  EXPECT_GT(BbvCollector::NormalizedDistance(a, b), 0.0);
  EXPECT_DOUBLE_EQ(BbvCollector::NormalizedDistance(a, b),
                   BbvCollector::NormalizedDistance(b, a));
  // Scale invariance (distance compares normalized shapes).
  const Bbv a2 = {2.0, 4.0, 6.0};
  EXPECT_NEAR(BbvCollector::NormalizedDistance(a, a2), 0.0, 1e-12);
  EXPECT_THROW(BbvCollector::NormalizedDistance(a, {1.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace stemroot::profiler
