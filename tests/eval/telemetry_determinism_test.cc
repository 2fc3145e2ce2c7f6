/// \file
/// The ISSUE acceptance test for the telemetry determinism contract: run
/// the full pipeline (generate -> profile -> cluster -> sample ->
/// evaluate) at 1 and at 8 threads and require the counters and
/// distributions sections of the export to be byte-identical. Span wall
/// times are excluded by design (telemetry.h), but all five canonical
/// stage spans must be present at every thread count.

#include <gtest/gtest.h>

#include <string>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/sampler.h"
#include "eval/pipeline.h"
#include "eval/stage_report.h"
#include "hw/hardware_model.h"
#include "workloads/suite.h"

namespace stemroot::eval {
namespace {

struct TelemetryRun {
  std::string counters_json;
  std::string distributions_json;
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
  run.counters_json = run.snapshot.CountersJson();
  run.distributions_json = run.snapshot.DistributionsJson();
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
  EXPECT_EQ(one.counters_json, eight.counters_json);
  EXPECT_EQ(one.distributions_json, eight.distributions_json);
}

TEST(TelemetryDeterminismTest, AllFiveStageSpansPresent) {
  for (const int threads : {1, 8}) {
    const TelemetryRun run = RunInstrumentedPipeline(threads);
    for (const std::string& stage : PipelineStageNames())
      EXPECT_TRUE(run.snapshot.HasSpan(stage))
          << stage << " missing at threads=" << threads;
    const StageReport report = StageReport::FromSnapshot(run.snapshot);
    for (const std::string& stage : PipelineStageNames())
      EXPECT_TRUE(report.HasStage(stage)) << stage;
    EXPECT_GT(report.TotalUs(), 0.0);
    EXPECT_FALSE(report.ToText().empty());
  }
}

TEST(TelemetryDeterminismTest, ExportValidatesAtBothThreadCounts) {
  for (const int threads : {1, 8}) {
    const TelemetryRun run = RunInstrumentedPipeline(threads);
    std::string error;
    std::vector<std::string> span_names;
    ASSERT_TRUE(ValidateTelemetryJson(run.snapshot.ToJson(), &error,
                                      &span_names))
        << "threads=" << threads << ": " << error;
    EXPECT_FALSE(span_names.empty());
  }
}

}  // namespace
}  // namespace stemroot::eval
