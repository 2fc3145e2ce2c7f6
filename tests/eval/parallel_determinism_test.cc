/// \file
/// The determinism contract of the parallel evaluation engine: running the
/// suite pipeline at 1 thread and at 8 threads must produce byte-identical
/// results. Every stochastic component derives its stream from explicit
/// (seed, index) pairs, so the parallel schedule is unobservable -- this
/// suite is the regression gate that keeps it that way.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "baselines/random_sampler.h"
#include "common/parallel.h"
#include "common/resource.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/sampler.h"
#include "eval/metrics.h"
#include "eval/pipeline.h"
#include "eval/runner.h"

namespace stemroot::eval {
namespace {

/// Bit pattern of a double: "byte-identical", not merely approximately
/// equal. (No NaNs occur in these pipelines; equal bits iff equal bytes.)
uint64_t Bits(double x) {
  uint64_t u;
  static_assert(sizeof(u) == sizeof(x));
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

void ExpectRowsByteIdentical(const std::vector<EvalResult>& a,
                             const std::vector<EvalResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    EXPECT_EQ(a[i].method, b[i].method);
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(Bits(a[i].speedup), Bits(b[i].speedup));
    EXPECT_EQ(Bits(a[i].error_pct), Bits(b[i].error_pct));
    EXPECT_EQ(Bits(a[i].theoretical_error_pct),
              Bits(b[i].theoretical_error_pct));
    EXPECT_EQ(a[i].num_samples, b[i].num_samples);
    EXPECT_EQ(a[i].num_clusters, b[i].num_clusters);
    EXPECT_EQ(Bits(a[i].estimated_total_us), Bits(b[i].estimated_total_us));
    EXPECT_EQ(Bits(a[i].true_total_us), Bits(b[i].true_total_us));
  }
}

SuiteResults RunCasioSubset(int threads) {
  SetNumThreads(threads);
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  baselines::RandomSampler random(0.01);
  core::StemRootSampler stem;
  const core::Sampler* samplers[] = {&random, &stem};
  SuiteRunConfig config;
  config.suite = workloads::SuiteId::kCasio;
  config.size_scale = 0.02;
  config.reps = 3;
  config.seed = 99;
  config.only_workloads = {"bert_infer", "dlrm_infer", "resnet50_train"};
  SuiteResults results = RunSuite(config, gpu, samplers);
  SetNumThreads(0);
  return results;
}

TEST(ParallelDeterminismTest, RunSuiteRowsIdenticalAcrossThreadCounts) {
  const SuiteResults serial = RunCasioSubset(1);
  const SuiteResults parallel = RunCasioSubset(8);
  ASSERT_EQ(serial.rows.size(), 6u);  // 3 workloads x 2 samplers
  ExpectRowsByteIdentical(serial.rows, parallel.rows);
}

TEST(ParallelDeterminismTest, ProfiledTraceIdenticalAcrossThreadCounts) {
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());

  const Pipeline::Spec spec{.suite = workloads::SuiteId::kCasio,
                            .workload = "bert_infer",
                            .options = {.seed = 7, .size_scale = 0.05}};
  SetNumThreads(1);
  const KernelTrace serial =
      Pipeline::GenerateProfiled(spec, gpu).Trace();
  SetNumThreads(8);
  const KernelTrace parallel =
      Pipeline::GenerateProfiled(spec, gpu).Trace();
  SetNumThreads(0);

  ASSERT_GT(serial.NumInvocations(), 100u);
  ASSERT_EQ(serial.NumInvocations(), parallel.NumInvocations());
  for (size_t i = 0; i < serial.NumInvocations(); ++i)
    ASSERT_EQ(Bits(serial.At(i).duration_us), Bits(parallel.At(i).duration_us))
        << "invocation " << i;
}

TEST(ParallelDeterminismTest, ReprofilingIsIdempotentAcrossThreadCounts) {
  // Same trace object, profiled twice at different thread counts with the
  // same run seed: durations must not move at all.
  hw::HardwareModel gpu(hw::GpuSpec::H100());
  SetNumThreads(1);
  KernelTrace trace = Pipeline::GenerateProfiled(
                          {.suite = workloads::SuiteId::kRodinia,
                           .workload = "lud",
                           .options = {.seed = 11, .size_scale = 0.2}},
                          gpu)
                          .Trace();
  std::vector<uint64_t> before;
  before.reserve(trace.NumInvocations());
  for (size_t i = 0; i < trace.NumInvocations(); ++i)
    before.push_back(Bits(trace.At(i).duration_us));

  SetNumThreads(8);
  gpu.ProfileTrace(trace, DeriveSeed(11, 0x50524F46ULL));
  SetNumThreads(0);
  for (size_t i = 0; i < trace.NumInvocations(); ++i)
    ASSERT_EQ(Bits(trace.At(i).duration_us), before[i]) << "invocation " << i;
}

/// Logical peaks with the environmental cache*/service* categories
/// stripped -- the set regress/compare actually gate.
std::map<std::string, uint64_t> DeterministicPeaks() {
  std::map<std::string, uint64_t> out;
  for (const auto& [category, bytes] : resource::LogicalPeaks())
    if (category.rfind("cache", 0) != 0 && category.rfind("service", 0) != 0)
      out.emplace(category, bytes);
  return out;
}

TEST(ParallelDeterminismTest, LogicalMemPeaksIdenticalAcrossThreadCounts) {
  // The mem-block determinism contract (DESIGN.md section 15): logical
  // per-category peaks are computed from container sizes, never from the
  // allocator or the schedule, so threads 1 and threads 4 must agree to
  // the byte. Physical RSS is environmental and deliberately unasserted.
  telemetry::SetEnabled(true);  // memory accounting rides telemetry
  resource::ResetAccounting();
  RunCasioSubset(1);
  const std::map<std::string, uint64_t> serial = DeterministicPeaks();

  resource::ResetAccounting();
  RunCasioSubset(4);
  const std::map<std::string, uint64_t> parallel = DeterministicPeaks();
  telemetry::SetEnabled(false);
  telemetry::Reset();
  resource::ResetAccounting();

  // The pipeline charges at least trace/plan/eval/root on this path.
  EXPECT_GE(serial.size(), 4u);
  for (const char* category : {"trace", "plan", "eval", "root"}) {
    EXPECT_TRUE(serial.count(category) != 0) << category;
    if (serial.count(category) != 0) {
      EXPECT_GT(serial.at(category), 0u);
    }
  }
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelDeterminismTest, EvaluateRepeatedIdenticalAcrossThreadCounts) {
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  SetNumThreads(1);
  const KernelTrace trace = Pipeline::GenerateProfiled(
                                {.suite = workloads::SuiteId::kCasio,
                                 .workload = "dlrm_infer",
                                 .options = {.seed = 21, .size_scale = 0.02}},
                                gpu)
                                .Trace();
  baselines::RandomSampler random(0.02);

  const EvalResult serial = EvaluateRepeated(random, trace, 8, 1234);
  SetNumThreads(8);
  const EvalResult parallel = EvaluateRepeated(random, trace, 8, 1234);
  SetNumThreads(0);

  ExpectRowsByteIdentical({serial}, {parallel});
}

}  // namespace
}  // namespace stemroot::eval
