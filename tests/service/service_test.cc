#include "service/service.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "baselines/registry.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "eval/pipeline.h"
#include "hw/gpu_spec.h"
#include "workloads/suite.h"

namespace stemroot::service {
namespace {

uint64_t Bits(double x) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(x));
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

constexpr uint64_t kSeed = 99;
constexpr double kScale = 0.05;

SessionConfig SmallConfig() {
  SessionConfig config;
  config.method = "stem";
  config.epsilon = 0.05;
  config.confidence = 0.95;
  config.seed = kSeed;
  config.scale = kScale;
  config.reps = 3;
  config.suite = "casio";
  config.workload = "bert_infer";
  config.gpu = "rtx2080";
  return config;
}

/// The sampler a session builds for SmallConfig: the registry's "stem"
/// with the session's epsilon/confidence injected.
std::unique_ptr<core::Sampler> BatchSampler(const SessionConfig& config) {
  baselines::EnsureBuiltinSamplers();
  core::SamplerParams params = config.params;
  params.Set("epsilon", config.epsilon);
  params.Set("confidence", config.confidence);
  return core::SamplerRegistry::Global().Create(config.method, params);
}

void ExpectPlansBitwiseEqual(const core::SamplingPlan& a,
                             const core::SamplingPlan& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(Bits(a.theoretical_error), Bits(b.theoretical_error));
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].invocation, b.entries[i].invocation) << "i=" << i;
    EXPECT_EQ(Bits(a.entries[i].weight), Bits(b.entries[i].weight))
        << "i=" << i;
  }
}

TEST(ServiceTest, ValidatesConfigs) {
  ServiceOptions bad;
  bad.max_sessions = 0;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);

  Service service;
  SessionConfig config = SmallConfig();
  config.epsilon = 1.5;
  EXPECT_THROW(service.OpenSession(config), std::invalid_argument);
  config = SmallConfig();
  config.epsilon = 0.0;  // sessions need an error contract
  EXPECT_THROW(service.OpenSession(config), std::invalid_argument);
  config = SmallConfig();
  config.suite = "";  // workload without suite
  EXPECT_THROW(service.OpenSession(config), std::invalid_argument);
  config = SmallConfig();
  config.workload = "";  // suite without workload
  EXPECT_THROW(service.OpenSession(config), std::invalid_argument);
  config = SmallConfig();
  config.method = "";
  EXPECT_THROW(service.OpenSession(config), std::invalid_argument);
}

ServiceOptions Limited(uint32_t max_sessions) {
  ServiceOptions options;
  options.max_sessions = max_sessions;
  return options;
}

TEST(ServiceTest, SessionLifecycle) {
  Service service(Limited(2));
  EXPECT_EQ(service.NumOpenSessions(), 0u);
  const SessionId a = service.OpenSession(SmallConfig());
  const SessionId b = service.OpenSession(SmallConfig());
  EXPECT_NE(a, b);
  EXPECT_EQ(service.NumOpenSessions(), 2u);
  EXPECT_THROW(service.OpenSession(SmallConfig()), std::runtime_error);
  EXPECT_THROW(service.Query(a + b + 17), std::out_of_range);

  service.CloseSession(a);
  EXPECT_EQ(service.NumOpenSessions(), 1u);
  EXPECT_THROW(service.Query(a), std::out_of_range);  // id is dead
  const SessionId c = service.OpenSession(SmallConfig());
  EXPECT_NE(c, a);  // ids are never reused
  service.CloseSession(b);
  service.CloseSession(c);
  EXPECT_EQ(service.NumOpenSessions(), 0u);
}

TEST(ServiceTest, GuardsBeforeFirstFeed) {
  Service service;
  const SessionId id = service.OpenSession(SmallConfig());
  EXPECT_THROW(service.BuildPlan(id), std::logic_error);
  EXPECT_THROW(service.Evaluate(id), std::logic_error);
  const SessionStatus status = service.Query(id);
  EXPECT_EQ(status.invocations_seen, 0u);
  EXPECT_GT(status.invocations_total, 0u);
  EXPECT_FALSE(status.converged);
  service.CloseSession(id);
}

TEST(ServiceTest, ReplayEquivalenceMatchesBatchPipeline) {
  SetNumThreads(1);
  const SessionConfig config = SmallConfig();
  eval::Pipeline batch = eval::Pipeline::GenerateProfiled(
      workloads::SuiteId::kCasio, config.workload, hw::GpuSpec::Rtx2080(),
      {.seed = kSeed, .size_scale = kScale});
  const std::unique_ptr<core::Sampler> sampler = BatchSampler(config);
  const core::SamplingPlan batch_plan = batch.Sample(*sampler);
  const eval::EvalResult batch_result = batch.Evaluate(*sampler, config.reps);

  Service service;
  const SessionId id = service.OpenSession(config);
  const uint64_t total = batch.Trace().NumInvocations();
  EXPECT_EQ(service.FeedFromSource(id, total), total);
  EXPECT_EQ(service.FeedFromSource(id, 10), 0u);  // source exhausted

  ExpectPlansBitwiseEqual(service.BuildPlan(id), batch_plan);
  const eval::EvalResult session_result = service.Evaluate(id);
  EXPECT_EQ(session_result.method, batch_result.method);
  EXPECT_EQ(Bits(session_result.speedup), Bits(batch_result.speedup));
  EXPECT_EQ(Bits(session_result.error_pct), Bits(batch_result.error_pct));
  EXPECT_EQ(Bits(session_result.estimated_total_us),
            Bits(batch_result.estimated_total_us));
  EXPECT_EQ(session_result.num_samples, batch_result.num_samples);
  EXPECT_EQ(session_result.num_clusters, batch_result.num_clusters);
  service.CloseSession(id);
}

TEST(ServiceTest, ReplayEquivalenceIsThreadInvariant) {
  // Batch plan at --threads 1, chunked session at --threads 4: the
  // determinism contract says neither chunking nor thread count may move
  // a byte.
  SetNumThreads(1);
  const SessionConfig config = SmallConfig();
  eval::Pipeline batch = eval::Pipeline::GenerateProfiled(
      workloads::SuiteId::kCasio, config.workload, hw::GpuSpec::Rtx2080(),
      {.seed = kSeed, .size_scale = kScale});
  const std::unique_ptr<core::Sampler> sampler = BatchSampler(config);
  const core::SamplingPlan batch_plan = batch.Sample(*sampler);
  const eval::EvalResult batch_result = batch.Evaluate(*sampler, config.reps);

  SetNumThreads(4);
  Service service;
  const SessionId id = service.OpenSession(config);
  while (service.FeedFromSource(id, 37) > 0) {
  }
  ExpectPlansBitwiseEqual(service.BuildPlan(id), batch_plan);
  const eval::EvalResult session_result = service.Evaluate(id);
  EXPECT_EQ(Bits(session_result.speedup), Bits(batch_result.speedup));
  EXPECT_EQ(Bits(session_result.error_pct), Bits(batch_result.error_pct));
  service.CloseSession(id);
  SetNumThreads(1);
}

TEST(ServiceTest, ChunkedFeedMatchesOneShotFeed) {
  Service service;
  const SessionId chunked = service.OpenSession(SmallConfig());
  const SessionId one_shot = service.OpenSession(SmallConfig());
  while (service.FeedFromSource(chunked, 13) > 0) {
  }
  uint64_t fed = 0;
  while (true) {
    const uint64_t n =
        service.FeedFromSource(one_shot, 1u << 30);  // everything at once
    fed += n;
    if (n == 0) break;
  }
  EXPECT_EQ(service.Query(chunked).invocations_seen, fed);
  ExpectPlansBitwiseEqual(service.BuildPlan(chunked),
                          service.BuildPlan(one_shot));
  service.CloseSession(chunked);
  service.CloseSession(one_shot);
}

TEST(ServiceTest, QueryTracksStreamingStructure) {
  Service service;
  const SessionId id = service.OpenSession(SmallConfig());
  while (service.FeedFromSource(id, 64) > 0) {
  }
  const SessionStatus status = service.Query(id);
  EXPECT_EQ(status.invocations_seen, status.invocations_total);
  EXPECT_GT(status.num_kernels, 0u);
  EXPECT_GE(status.clusters.size(), status.num_kernels);
  EXPECT_GT(status.stem_samples_total, 0u);
  EXPECT_GT(status.allocation_error, 0.0);
  EXPECT_GT(status.predicted_error, 0.0);
  EXPECT_GT(status.estimated_total_us, 0.0);
  EXPECT_FALSE(status.early_stop);  // nothing left to skip
  uint64_t cluster_n = 0;
  for (const ClusterSummary& c : status.clusters) {
    EXPECT_FALSE(c.kernel.empty());
    cluster_n += c.n;
  }
  EXPECT_EQ(cluster_n, status.invocations_seen);  // counts conserved
  service.CloseSession(id);
}

TEST(ServiceTest, PredictedErrorTightensAcrossChunks) {
  SessionConfig config = SmallConfig();
  config.order = FeedOrder::kShuffled;
  Service service;
  const SessionId id = service.OpenSession(config);

  std::vector<double> errors;
  while (service.FeedFromSource(id, 96) > 0)
    errors.push_back(service.Query(id).predicted_error);
  ASSERT_GE(errors.size(), 4u);
  // The bound shrinks as ~1/sqrt(n) while the CoV estimate stabilizes;
  // allow small transient upticks while new clusters surface, but demand
  // the overall trajectory to be non-increasing and strictly tighter.
  for (size_t i = 1; i < errors.size(); ++i)
    EXPECT_LE(errors[i], errors[i - 1] * 1.05) << "chunk " << i;
  EXPECT_LT(errors.back(), errors.front() * 0.5);
  service.CloseSession(id);
}

TEST(ServiceTest, ShuffledEarlyStopMeetsEpsilon) {
  SessionConfig config = SmallConfig();
  config.order = FeedOrder::kShuffled;
  config.scale = 0.2;  // enough invocations to converge before exhaustion
  config.epsilon = 0.05;

  eval::Pipeline full = eval::Pipeline::GenerateProfiled(
      workloads::SuiteId::kCasio, config.workload, hw::GpuSpec::Rtx2080(),
      {.seed = kSeed, .size_scale = config.scale});
  const double true_total = full.Trace().TotalDurationUs();

  Service service;
  const SessionId id = service.OpenSession(config);
  SessionStatus status;
  while (true) {
    const uint64_t n = service.FeedFromSource(id, 64);
    status = service.Query(id);
    if (status.early_stop || n == 0) break;
  }
  ASSERT_TRUE(status.converged) << "never converged; predicted_error="
                                << status.predicted_error;
  ASSERT_TRUE(status.early_stop);
  EXPECT_LT(status.invocations_seen, status.invocations_total);
  // The acceptance criterion: the extrapolated total's realized error is
  // within the session's epsilon of the full-trace ground truth.
  const double realized =
      std::abs(status.estimated_total_us - true_total) / true_total;
  EXPECT_LE(realized, config.epsilon)
      << "seen " << status.invocations_seen << "/"
      << status.invocations_total;

  const eval::RunManifest manifest = service.CloseSession(id);
  EXPECT_EQ(manifest.counters.at("service.early_stops"), 1u);
}

TEST(ServiceTest, SessionManifestMirrorsBatchRun) {
  telemetry::SetEnabled(true);
  telemetry::Reset();
  const SessionConfig config = SmallConfig();

  eval::RunManifest batch;
  batch.tool = "stemroot";
  batch.command = "run";
  batch.completed = true;
  const eval::EvalResult batch_result = Service::RunBatch(config, &batch);
  batch.FillFromSnapshot(telemetry::Capture());

  telemetry::Reset();
  Service service;
  const SessionId id = service.OpenSession(config);
  while (service.FeedFromSource(id, 1u << 30) > 0) {
  }
  const eval::EvalResult session_result = service.Evaluate(id);
  const eval::RunManifest session = service.CloseSession(id);

  EXPECT_EQ(session.command, "session");
  EXPECT_TRUE(session.completed);
  EXPECT_EQ(session.config.suite, batch.config.suite);
  EXPECT_EQ(session.config.workload, batch.config.workload);
  EXPECT_EQ(session.config.gpu, batch.config.gpu);
  EXPECT_EQ(session.config.method, batch.config.method);
  EXPECT_EQ(session.config.seed, batch.config.seed);
  EXPECT_EQ(session.config.epsilon, batch.config.epsilon);
  EXPECT_EQ(session.metrics.present, batch.metrics.present);
  EXPECT_EQ(Bits(session.metrics.error_pct), Bits(batch.metrics.error_pct));
  EXPECT_EQ(Bits(session_result.speedup), Bits(batch_result.speedup));

  // Counter parity: the session's sink counters equal the batch run's
  // process counters outside the environmental service.* family.
  for (const auto& [name, value] : batch.counters) {
    if (name.rfind("cache.", 0) == 0) continue;
    EXPECT_EQ(session.counters.count(name), 1u) << name;
    if (session.counters.count(name) == 1) {
      EXPECT_EQ(session.counters.at(name), value) << name;
    }
  }
  EXPECT_EQ(session.counters.at("service.sessions"), 1u);
  EXPECT_GT(session.counters.at("service.feed_invocations"), 0u);
  EXPECT_EQ(session.counters.at("service.early_stops"), 0u);
  EXPECT_FALSE(session.stages.empty());
  telemetry::SetEnabled(false);
  telemetry::Reset();
}

TEST(ServiceTest, RunBatchRequiresWorkload) {
  SessionConfig config = SmallConfig();
  config.suite.clear();
  config.workload.clear();
  EXPECT_THROW(Service::RunBatch(config, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace stemroot::service
