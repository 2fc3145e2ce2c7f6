/// \file
/// The ISSUE acceptance test for the telemetry determinism contract: run
/// the full pipeline (generate -> profile -> cluster -> sample ->
/// evaluate) at 1 and at 8 threads and require the counters and
/// distributions sections of the snapshot, and so of the run manifest, to
/// be byte-identical. Span wall times are excluded by design
/// (telemetry.h), but all five canonical stage spans must be present at
/// every thread count.

#include <gtest/gtest.h>

#include <string>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/sampler.h"
#include "eval/pipeline.h"
#include "eval/manifest.h"
#include "hw/hardware_model.h"
#include "workloads/suite.h"

namespace stemroot::eval {
namespace {

struct TelemetryRun {
  telemetry::Snapshot snapshot;
};

/// One `stemroot run`-shaped pipeline pass with telemetry on.
TelemetryRun RunInstrumentedPipeline(int threads) {
  SetNumThreads(threads);
  telemetry::SetEnabled(true);
  telemetry::Reset();

  Pipeline pipeline = Pipeline::Generate(workloads::SuiteId::kCasio,
                                         "bert_infer",
                                         {.seed = 99, .size_scale = 0.05});
  pipeline.Profile(hw::GpuSpec::Rtx2080());
  const core::StemRootSampler stem;
  pipeline.Evaluate(stem, 3);

  TelemetryRun run;
  run.snapshot = telemetry::Capture();
  telemetry::Reset();
  telemetry::SetEnabled(false);
  SetNumThreads(0);
  return run;
}

TEST(TelemetryDeterminismTest, CountersByteIdenticalAcrossThreadCounts) {
  const TelemetryRun one = RunInstrumentedPipeline(1);
  const TelemetryRun eight = RunInstrumentedPipeline(8);

  EXPECT_FALSE(one.snapshot.Counters().empty());
  EXPECT_FALSE(one.snapshot.Distributions().empty());
  EXPECT_EQ(one.snapshot.Counters(), eight.snapshot.Counters());
  EXPECT_EQ(one.snapshot.Summaries(), eight.snapshot.Summaries());
}

TEST(TelemetryDeterminismTest, AllFiveStageSpansPresent) {
  for (const int threads : {1, 8}) {
    const TelemetryRun run = RunInstrumentedPipeline(threads);
    for (const std::string& stage : PipelineStageNames())
      EXPECT_TRUE(run.snapshot.HasSpan(stage))
          << stage << " missing at threads=" << threads;
    RunManifest manifest;
    manifest.FillFromSnapshot(run.snapshot);
    for (const std::string& stage : PipelineStageNames()) {
      ASSERT_NE(manifest.FindStage(stage), nullptr) << stage;
      EXPECT_GT(manifest.FindStage(stage)->total_us, 0.0) << stage;
    }
    EXPECT_NE(manifest.StagesText().find("evaluate"), std::string::npos);
  }
}

// The run manifest is the one export: it validates and round-trips its
// distributions at both thread counts, and they agree.
TEST(TelemetryDeterminismTest, ExportValidatesAtBothThreadCounts) {
  std::map<std::string, telemetry::DistSummary> distributions[2];
  for (const int threads : {1, 8}) {
    const TelemetryRun run = RunInstrumentedPipeline(threads);
    RunManifest manifest;
    manifest.tool = "stemroot";
    manifest.command = "run";
    manifest.completed = true;
    manifest.FillFromSnapshot(run.snapshot);
    RunManifest back;
    std::string error;
    ASSERT_TRUE(RunManifest::FromJson(manifest.ToJson(/*pretty=*/true), back,
                                      &error))
        << "threads=" << threads << ": " << error;
    EXPECT_EQ(back.distributions, manifest.distributions);
    EXPECT_EQ(back.distributions.count("core.root.cluster_size"), 1u);
    distributions[threads == 1 ? 0 : 1] = back.distributions;
  }
  EXPECT_EQ(distributions[0], distributions[1]);
}

}  // namespace
}  // namespace stemroot::eval
