#include "core/sampler.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>

#include "baselines/registry.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/sampler_registry.h"
#include "hw/hardware_model.h"
#include "workloads/casio.h"
#include "workloads/rodinia.h"

namespace stemroot::core {
namespace {

class StemSamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = workloads::MakeCasio("bert_infer", 31, 0.05);
    hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
    gpu.ProfileTrace(trace_, 2);
  }
  KernelTrace trace_;
  StemRootSampler sampler_;
};

TEST_F(StemSamplerTest, PlanIsValidAndWeightCoversWorkload) {
  const SamplingPlan plan = sampler_.BuildPlan(trace_, 1);
  EXPECT_NO_THROW(plan.Validate(trace_.NumInvocations()));
  EXPECT_EQ(plan.method, "STEM");
  EXPECT_GT(plan.NumSamples(), 0u);
  EXPECT_NEAR(plan.TotalWeight(),
              static_cast<double>(trace_.NumInvocations()),
              trace_.NumInvocations() * 1e-9);
}

TEST_F(StemSamplerTest, EstimateWithinTheoreticalBound) {
  const SamplingPlan plan = sampler_.BuildPlan(trace_, 1);
  const double truth = trace_.TotalDurationUs();
  const double estimate = plan.EstimateTotalUs(trace_);
  EXPECT_LT(std::abs(estimate - truth) / truth,
            sampler_.Config().root.stem.epsilon);
  EXPECT_LE(plan.theoretical_error,
            sampler_.Config().root.stem.epsilon * 1.0001);
}

TEST_F(StemSamplerTest, SamplesFarFewerThanWorkload) {
  const SamplingPlan plan = sampler_.BuildPlan(trace_, 1);
  EXPECT_LT(plan.DistinctInvocations().size(),
            trace_.NumInvocations() / 4);
}

TEST_F(StemSamplerTest, DeterministicGivenSeed) {
  const SamplingPlan a = sampler_.BuildPlan(trace_, 5);
  const SamplingPlan b = sampler_.BuildPlan(trace_, 5);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].invocation, b.entries[i].invocation);
    EXPECT_DOUBLE_EQ(a.entries[i].weight, b.entries[i].weight);
  }
  EXPECT_FALSE(sampler_.Deterministic());  // different seeds -> new draws
}

TEST_F(StemSamplerTest, ClusterCountExceedsKernelCount) {
  // ROOT must split at least the multi-context kernels beyond one
  // cluster per name.
  const SamplingPlan plan = sampler_.BuildPlan(trace_, 1);
  EXPECT_GT(plan.num_clusters, trace_.NumKernelTypes());
}

TEST_F(StemSamplerTest, TighterEpsilonSamplesMore) {
  StemRootConfig tight;
  tight.root.stem.epsilon = 0.01;
  StemRootConfig loose;
  loose.root.stem.epsilon = 0.25;
  const SamplingPlan plan_tight =
      StemRootSampler(tight).BuildPlan(trace_, 1);
  const SamplingPlan plan_loose =
      StemRootSampler(loose).BuildPlan(trace_, 1);
  EXPECT_GT(plan_tight.NumSamples(), plan_loose.NumSamples());
}

TEST_F(StemSamplerTest, RejectsUnprofiledTrace) {
  KernelTrace raw = workloads::MakeCasio("bert_infer", 1, 0.01);
  EXPECT_THROW(sampler_.BuildPlan(raw, 1), std::invalid_argument);
  KernelTrace empty("empty");
  EXPECT_THROW(sampler_.BuildPlan(empty, 1), std::invalid_argument);
}

TEST(StemSamplerHeartwallTest, CatchesTheShortFirstInvocation) {
  // heartwall: first-chronological sampling underestimates by ~99.9%
  // (Sec. 5.1); STEM's estimate must stay within epsilon.
  KernelTrace trace = workloads::MakeRodinia("heartwall", 13, 1.0);
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  gpu.ProfileTrace(trace, 2);
  StemRootSampler sampler;
  const SamplingPlan plan = sampler.BuildPlan(trace, 1);
  const double truth = trace.TotalDurationUs();
  const double estimate = plan.EstimateTotalUs(trace);
  EXPECT_LT(std::abs(estimate - truth) / truth, 0.05);
}

/// Bitwise double equality: the contracts below are byte-identity, not
/// closeness.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectPlansIdentical(const SamplingPlan& a, const SamplingPlan& b,
                          const std::string& where) {
  EXPECT_EQ(a.method, b.method) << where;
  EXPECT_EQ(a.num_clusters, b.num_clusters) << where;
  EXPECT_TRUE(SameBits(a.theoretical_error, b.theoretical_error)) << where;
  ASSERT_EQ(a.entries.size(), b.entries.size()) << where;
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].invocation, b.entries[i].invocation)
        << where << " entry " << i;
    EXPECT_TRUE(SameBits(a.entries[i].weight, b.entries[i].weight))
        << where << " entry " << i;
  }
}

/// Restores automatic thread-count resolution when a test ends.
struct ScopedThreads {
  explicit ScopedThreads(int n) { SetNumThreads(n); }
  ~ScopedThreads() { SetNumThreads(0); }
};

class BuildPlansTest : public ::testing::Test {
 protected:
  void SetUp() override {
    baselines::EnsureBuiltinSamplers();
    trace_ = workloads::MakeCasio("bert_infer", 31, 0.05);
    hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
    gpu.ProfileTrace(trace_, 2);
  }
  KernelTrace trace_;
};

TEST_F(BuildPlansTest, PlanREqualsBuildPlanAtBaseSeedPlusR) {
  ASSERT_GT(trace_.NumKernelTypes(), 1u);
  constexpr uint64_t kBase = 1000;
  constexpr uint32_t kCount = 4;
  const SamplerRegistry& registry = SamplerRegistry::Global();
  ASSERT_EQ(registry.Names().size(), 6u);
  for (const std::string& name : registry.Names()) {
    const std::unique_ptr<Sampler> sampler = registry.Create(name);
    std::vector<SamplingPlan> singles;
    {
      ScopedThreads threads(1);
      for (uint32_t r = 0; r < kCount; ++r)
        singles.push_back(sampler->BuildPlan(trace_, kBase + r));
    }
    for (const int threads : {1, 4}) {
      ScopedThreads guard(threads);
      const std::vector<SamplingPlan> batch =
          sampler->BuildPlans(trace_, kBase, kCount);
      ASSERT_EQ(batch.size(), kCount) << name;
      for (uint32_t r = 0; r < kCount; ++r)
        ExpectPlansIdentical(batch[r], singles[r],
                             name + " threads=" + std::to_string(threads) +
                                 " rep " + std::to_string(r));
    }
    EXPECT_TRUE(sampler->BuildPlans(trace_, kBase, 0).empty()) << name;
  }
}

/// The core.root.* and core.kmeans.* counters and distributions of one
/// BuildStemClusters call, plus its output.
struct ClusteringRun {
  StemClustering clustering;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::vector<double>> distributions;
};

ClusteringRun ClusterWithTelemetry(const KernelTrace& trace, int threads) {
  ScopedThreads guard(threads);
  telemetry::SetEnabled(true);
  telemetry::Reset();
  ClusteringRun run;
  run.clustering = BuildStemClusters(trace, RootConfig{});
  const telemetry::Snapshot snapshot = telemetry::Capture();
  telemetry::Reset();
  telemetry::SetEnabled(false);
  const auto tracked = [](const std::string& name) {
    return name.starts_with("core.root.") || name.starts_with("core.kmeans.");
  };
  for (const auto& [name, value] : snapshot.Counters())
    if (tracked(name)) run.counters[name] = value;
  for (const auto& [name, values] : snapshot.Distributions())
    if (tracked(name)) run.distributions[name] = values;
  return run;
}

TEST_F(BuildPlansTest, StemClustersAndTheirTelemetryAreThreadInvariant) {
  const ClusteringRun one = ClusterWithTelemetry(trace_, 1);
  const ClusteringRun four = ClusterWithTelemetry(trace_, 4);

  EXPECT_GT(one.counters.count("core.root.clusters"), 0u);
  EXPECT_GT(one.counters.count("core.kmeans.runs"), 0u);
  EXPECT_EQ(one.counters, four.counters);
  EXPECT_EQ(one.distributions, four.distributions);

  EXPECT_EQ(one.clustering.kernel_ids, four.clustering.kernel_ids);
  ASSERT_EQ(one.clustering.clusters.size(), four.clustering.clusters.size());
  for (size_t c = 0; c < one.clustering.clusters.size(); ++c) {
    const RootCluster& a = one.clustering.clusters[c];
    const RootCluster& b = four.clustering.clusters[c];
    EXPECT_EQ(a.members, b.members) << "cluster " << c;
    EXPECT_EQ(a.depth, b.depth) << "cluster " << c;
    EXPECT_EQ(a.stats.n, b.stats.n) << "cluster " << c;
    EXPECT_TRUE(SameBits(a.stats.mean, b.stats.mean)) << "cluster " << c;
    EXPECT_TRUE(SameBits(a.stats.stddev, b.stats.stddev)) << "cluster " << c;
  }
}

TEST(SamplingPlanTest, EstimateAndCostHelpers) {
  SamplingPlan plan;
  plan.entries = {{0, 2.0}, {2, 3.0}, {0, 2.0}};
  const std::vector<double> durations = {10.0, 99.0, 20.0};
  EXPECT_DOUBLE_EQ(plan.EstimateTotalUs(durations),
                   2.0 * 10 + 3.0 * 20 + 2.0 * 10);
  // Distinct cost counts invocation 0 once.
  EXPECT_DOUBLE_EQ(plan.SampledCostUs(durations), 10.0 + 20.0);
  EXPECT_EQ(plan.DistinctInvocations(), (std::vector<uint32_t>{0, 2}));
  EXPECT_DOUBLE_EQ(plan.TotalWeight(), 7.0);
}

TEST(SamplingPlanTest, ValidationCatchesBadEntries) {
  SamplingPlan plan;
  plan.entries = {{5, 1.0}};
  EXPECT_THROW(plan.Validate(3), std::out_of_range);
  plan.entries = {{0, 0.0}};
  EXPECT_THROW(plan.Validate(3), std::out_of_range);
  const std::vector<double> durations = {1.0};
  plan.entries = {{2, 1.0}};
  EXPECT_THROW(plan.EstimateTotalUs(durations), std::out_of_range);
  EXPECT_THROW(plan.SampledCostUs(durations), std::out_of_range);
}

}  // namespace
}  // namespace stemroot::core
