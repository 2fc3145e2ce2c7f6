#include "eval/audit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "baselines/random_sampler.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/sampler.h"
#include "eval/pipeline.h"
#include "hw/gpu_spec.h"
#include "workloads/suite.h"

namespace stemroot::eval {
namespace {

KernelTrace ProfiledTrace(const std::string& workload, uint64_t seed,
                          double scale) {
  Pipeline pipeline = Pipeline::Generate(workloads::SuiteId::kRodinia,
                                         workload,
                                         {.seed = seed, .size_scale = scale});
  pipeline.Profile(hw::GpuSpec::Rtx2080());
  return pipeline.Trace();
}

// The acceptance gate from the issue: `stemroot audit --suite rodinia
// --seed 42` must show realized |error| within the predicted bound for at
// least 95% of clusters. Pin it here so the error model stays honest.
TEST(AuditTest, RodiniaSeed42StaysWithinBudget) {
  const core::StemRootSampler stem;
  AuditOptions options;
  options.trials = 5;
  options.seed = 42;
  const AuditReport report = AuditSuite(workloads::SuiteId::kRodinia, stem,
                                        hw::GpuSpec::Rtx2080(), options);
  EXPECT_EQ(report.method, stem.Name());
  EXPECT_EQ(report.workloads.size(),
            workloads::SuiteWorkloads(workloads::SuiteId::kRodinia).size());
  ASSERT_GT(report.TotalClusters(), 0u);
  EXPECT_GE(report.WithinBudgetFraction(), 0.95);
  EXPECT_GE(report.MeanCoverage(), 0.90);
  // Every workload's joint bound respects the configured epsilon.
  for (const WorkloadAudit& wl : report.workloads) {
    EXPECT_LE(wl.joint_predicted_error, report.epsilon + 1e-12)
        << wl.workload;
  }
}

TEST(AuditTest, JsonExportValidatesAndTextSummarizes) {
  const core::StemRootSampler stem;
  AuditOptions options;
  options.trials = 3;
  options.only_workloads = {"bfs", "hotspot"};
  const AuditReport report = AuditSuite(workloads::SuiteId::kRodinia, stem,
                                        hw::GpuSpec::Rtx2080(), options);
  ASSERT_EQ(report.workloads.size(), 2u);

  std::string error;
  EXPECT_TRUE(ValidateAuditJson(report.ToJson(), &error)) << error;

  const std::string text = report.ToText();
  EXPECT_NE(text.find("bfs"), std::string::npos);
  EXPECT_NE(text.find("hotspot"), std::string::npos);
  EXPECT_NE(text.find("Summary:"), std::string::npos);
}

TEST(AuditTest, ValidateRejectsMalformedJson) {
  std::string error;
  EXPECT_FALSE(ValidateAuditJson("", &error));
  EXPECT_FALSE(ValidateAuditJson("{", &error));
  EXPECT_FALSE(ValidateAuditJson("[]", &error));
  EXPECT_FALSE(ValidateAuditJson("{\"schema\":\"wrong\"}", &error));
  EXPECT_FALSE(error.empty());
}

// Integers leave the export as their exact digits: a seed above 2^53
// (here 2^64 - 1) would come back rounded through a double.
TEST(AuditTest, ExportKeepsIntegersExact) {
  AuditReport report;
  report.method = "STEM";
  report.trials = 4294967295u;
  report.seed = 18446744073709551615ull;
  WorkloadAudit audit;
  audit.workload = "w";
  ClusterAuditRow row;
  row.kernel = "k";
  row.cluster_id = 7;
  row.population = 9007199254740993ull;  // 2^53 + 1
  row.m_allocated = 9007199254740995ull;
  audit.clusters.push_back(row);
  report.workloads.push_back(audit);

  const std::string exported = report.ToJson();
  std::string error;
  ASSERT_TRUE(ValidateAuditJson(exported, &error)) << error;
  json::Value doc;
  ASSERT_TRUE(json::Parse(exported, doc, &error)) << error;
  ASSERT_NE(doc.Find("seed"), nullptr);
  EXPECT_EQ(json::ExactUint64(*doc.Find("seed")), 18446744073709551615ull);
  EXPECT_EQ(json::ExactUint64(*doc.Find("trials")), 4294967295u);
  const json::Value& cluster =
      (*(*doc.Find("workloads")->array)[0].Find("clusters")->array)[0];
  EXPECT_EQ(json::ExactUint64(*cluster.Find("cluster_id")), 7u);
  EXPECT_EQ(json::ExactUint64(*cluster.Find("population")),
            9007199254740993ull);
  EXPECT_EQ(json::ExactUint64(*cluster.Find("m_allocated")),
            9007199254740995ull);
}

TEST(AuditTest, ReportIsThreadCountInvariant) {
  const core::StemRootSampler stem;
  AuditOptions options;
  options.trials = 4;
  options.only_workloads = {"hotspot"};
  SetNumThreads(1);
  const std::string serial =
      AuditSuite(workloads::SuiteId::kRodinia, stem, hw::GpuSpec::Rtx2080(),
                 options)
          .ToJson();
  SetNumThreads(4);
  const std::string threaded =
      AuditSuite(workloads::SuiteId::kRodinia, stem, hw::GpuSpec::Rtx2080(),
                 options)
          .ToJson();
  SetNumThreads(0);
  EXPECT_EQ(serial, threaded);
}

// Auditing a baseline must work with STEM's reference partition: the rows
// then show where the baseline leaves epsilon-clusters under-covered.
TEST(AuditTest, BaselineSamplerAuditsAgainstStemBudget) {
  const KernelTrace trace = ProfiledTrace("bfs", 42, 1.0);
  const baselines::RandomSampler random(0.1);
  const WorkloadAudit audit = AuditWorkload(
      trace, random, core::RootConfig{}, 3,
      DeriveSeed(42, HashString(random.Name())));
  ASSERT_FALSE(audit.clusters.empty());
  // The allocation column is STEM's KKT answer regardless of sampler; the
  // draw column is what the audited sampler actually did.
  bool any_mismatch = false;
  for (const ClusterAuditRow& row : audit.clusters) {
    EXPECT_GE(row.population, 1u);
    if (std::fabs(row.mean_draws - static_cast<double>(row.m_allocated)) >
        1e-9)
      any_mismatch = true;
  }
  EXPECT_TRUE(any_mismatch);
}

TEST(AuditTest, ZeroTrialsThrows) {
  const KernelTrace trace = ProfiledTrace("bfs", 7, 0.5);
  const core::StemRootSampler stem;
  EXPECT_THROW(AuditWorkload(trace, stem, core::RootConfig{}, 0, 1),
               std::invalid_argument);
}

TEST(AuditTest, ExhaustiveClustersRealizeZeroError) {
  const KernelTrace trace = ProfiledTrace("bfs", 42, 1.0);
  const core::StemRootSampler stem;
  const WorkloadAudit audit = AuditWorkload(
      trace, stem, core::RootConfig{}, 2,
      DeriveSeed(42, HashString(stem.Name())));
  for (const ClusterAuditRow& row : audit.clusters) {
    if (row.m_allocated < row.population) continue;
    // m >= N means every member is measured: the estimate is exact.
    EXPECT_NEAR(row.mean_abs_error, 0.0, 1e-9) << row.kernel;
    EXPECT_TRUE(row.within_budget) << row.kernel;
  }
}

}  // namespace
}  // namespace stemroot::eval
