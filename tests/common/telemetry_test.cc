#include "common/telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <thread>

#include "common/parallel.h"
#include "common/trace_events.h"

namespace stemroot::telemetry {
namespace {

/// Every test owns the process-wide registry for its duration.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    Reset();
  }
  void TearDown() override {
    Reset();
    SetEnabled(false);
  }
};

TEST_F(TelemetryTest, CountersAccumulate) {
  Count("a");
  Count("a", 2);
  Count("b", 10);
  const Snapshot snap = Capture();
  EXPECT_EQ(snap.Counter("a"), 3u);
  EXPECT_EQ(snap.Counter("b"), 10u);
  EXPECT_EQ(snap.Counter("missing"), 0u);
  EXPECT_EQ(snap.Counters().size(), 2u);
}

TEST_F(TelemetryTest, CaptureIsCumulativeUntilReset) {
  Count("a");
  EXPECT_EQ(Capture().Counter("a"), 1u);
  Count("a");
  EXPECT_EQ(Capture().Counter("a"), 2u);
  Reset();
  EXPECT_EQ(Capture().Counter("a"), 0u);
  EXPECT_TRUE(Capture().Counters().empty());
}

TEST_F(TelemetryTest, DisabledIsNoop) {
  SetEnabled(false);
  Count("a");
  Record("d", 1.0);
  { Span span("s"); }
  SetEnabled(true);
  const Snapshot snap = Capture();
  EXPECT_TRUE(snap.Counters().empty());
  EXPECT_TRUE(snap.Distributions().empty());
  EXPECT_TRUE(snap.Spans().empty());
}

TEST_F(TelemetryTest, DistributionSummary) {
  for (int i = 1; i <= 100; ++i) Record("d", static_cast<double>(i));
  const DistSummary dist = Capture().Dist("d");
  EXPECT_EQ(dist.count, 100u);
  EXPECT_DOUBLE_EQ(dist.min, 1.0);
  EXPECT_DOUBLE_EQ(dist.max, 100.0);
  EXPECT_DOUBLE_EQ(dist.mean, 50.5);
  // Quantiles index the sorted multiset at floor(q * n).
  EXPECT_DOUBLE_EQ(dist.p50, 51.0);
  EXPECT_DOUBLE_EQ(dist.p99, 100.0);
  EXPECT_EQ(Capture().Dist("missing").count, 0u);
}

TEST_F(TelemetryTest, RecordDropsNonFinite) {
  Record("d", std::numeric_limits<double>::quiet_NaN());
  Record("d", std::numeric_limits<double>::infinity());
  Record("d", -std::numeric_limits<double>::infinity());
  Record("d", 2.0);
  const DistSummary dist = Capture().Dist("d");
  EXPECT_EQ(dist.count, 1u);
  EXPECT_DOUBLE_EQ(dist.min, 2.0);
  EXPECT_DOUBLE_EQ(dist.max, 2.0);
}

TEST_F(TelemetryTest, SpanNestingTracksParent) {
  {
    Span outer("outer");
    Span inner("inner");
  }
  const Snapshot snap = Capture();
  EXPECT_TRUE(snap.HasSpan("outer"));
  EXPECT_TRUE(snap.HasSpan("inner"));
  EXPECT_FALSE(snap.HasSpan("missing"));
  ASSERT_EQ(snap.Spans().count({"outer", ""}), 1u);
  ASSERT_EQ(snap.Spans().count({"inner", "outer"}), 1u);
  const SpanStats& inner = snap.Spans().at({"inner", "outer"});
  EXPECT_EQ(inner.count, 1u);
  EXPECT_GE(inner.total_us, 0.0);
  const SpanStats& outer = snap.Spans().at({"outer", ""});
  EXPECT_GE(outer.total_us, inner.total_us);
}

TEST_F(TelemetryTest, ThreadBuffersMergeDeterministically) {
  SetNumThreads(4);
  ParallelFor(0, 1000, [](size_t i) {
    Count("n");
    Record("v", static_cast<double>(i % 10));
  });
  const Snapshot snap = Capture();
  EXPECT_EQ(snap.Counter("n"), 1000u);
  const DistSummary dist = snap.Dist("v");
  EXPECT_EQ(dist.count, 1000u);
  EXPECT_DOUBLE_EQ(dist.min, 0.0);
  EXPECT_DOUBLE_EQ(dist.max, 9.0);
  EXPECT_DOUBLE_EQ(dist.mean, 4.5);
  SetNumThreads(0);
}

TEST_F(TelemetryTest, CountersAreSortedAndStable) {
  Count("zeta", 2);
  Count("alpha", 1);
  const std::map<std::string, uint64_t> counters = Capture().Counters();
  EXPECT_EQ(counters,
            (std::map<std::string, uint64_t>{{"alpha", 1}, {"zeta", 2}}));
  EXPECT_EQ(Capture().Counters(), counters);
}

// Regression: SetEnabled may flip between a Span's construction and its
// destruction (a bench toggling telemetry around a region, or the CLI
// enabling late). Neither direction may corrupt the per-thread name stack
// or crash; disabling mid-span simply discards that span's timing.
TEST_F(TelemetryTest, SpanToleratesDisableMidSpan) {
  {
    Span outer("outer");
    SetEnabled(false);
    // The stack entry must still be popped on destruction even though
    // recording is now off...
  }
  SetEnabled(true);
  EXPECT_TRUE(Capture().Spans().empty());

  // ...so a following span sees a clean stack (no stale "outer" parent).
  { Span next("next"); }
  const Snapshot snap = Capture();
  ASSERT_EQ(snap.Spans().size(), 1u);
  EXPECT_EQ(snap.Spans().begin()->second.name, "next");
  EXPECT_EQ(snap.Spans().begin()->second.parent, "");
}

TEST_F(TelemetryTest, SpanToleratesEnableMidSpan) {
  SetEnabled(false);
  {
    Span span("late");
    SetEnabled(true);
    // Construction saw telemetry off: nothing was pushed, so nothing may
    // be recorded or popped at destruction.
  }
  EXPECT_TRUE(Capture().Spans().empty());
}

TEST_F(TelemetryTest, NestedSpansSurviveMidSpanToggle) {
  {
    Span outer("outer");
    {
      Span inner("inner");
      SetEnabled(false);
    }
    SetEnabled(true);
    // inner popped itself while disabled; a sibling must still see
    // "outer" as its parent.
    { Span sibling("sibling"); }
  }
  const Snapshot snap = Capture();
  bool found = false;
  for (const auto& [key, stats] : snap.Spans()) {
    if (stats.name != "sibling") continue;
    found = true;
    EXPECT_EQ(stats.parent, "outer");
  }
  EXPECT_TRUE(found);
}

// A Span feeds the trace-event timeline independently of telemetry: with
// telemetry off but tracing on it must still emit a balanced B/E pair.
TEST_F(TelemetryTest, SpanFeedsTraceEventsWhenTelemetryOff) {
  SetEnabled(false);
  trace_events::Reset();
  trace_events::SetEnabled(true);
  { Span span("traced_only"); }
  trace_events::SetEnabled(false);
  SetEnabled(true);

  EXPECT_TRUE(Capture().Spans().empty());
  std::string error;
  std::vector<std::string> names;
  trace_events::TraceInfo info;
  ASSERT_TRUE(trace_events::ValidateTraceJson(trace_events::ExportJson(),
                                              &error, &names, &info))
      << error;
  EXPECT_EQ(info.events, 2u);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "traced_only");
  trace_events::Reset();
}

// And the other mid-span hazard: tracing disabled between Span
// construction and destruction must still close the open begin.
TEST_F(TelemetryTest, SpanClosesTraceBeginWhenTracingDisabledMidSpan) {
  trace_events::Reset();
  trace_events::SetEnabled(true);
  {
    Span span("toggled");
    trace_events::SetEnabled(false);
  }
  std::string error;
  trace_events::TraceInfo info;
  ASSERT_TRUE(trace_events::ValidateTraceJson(trace_events::ExportJson(),
                                              &error, nullptr, &info))
      << error;
  EXPECT_EQ(info.events, 2u);
  trace_events::Reset();
}

TEST_F(TelemetryTest, ScopeRecordsIntoSinkAsWellAsProcessBuffers) {
  Sink sink;
  Count("outside");
  {
    const Scope scope(&sink);
    Count("a", 2);
    Record("d", 1.5);
    { Span span("s"); }
  }
  Count("a");
  const Snapshot mine = sink.Capture();
  EXPECT_EQ(mine.Counters(), (std::map<std::string, uint64_t>{{"a", 2}}));
  EXPECT_EQ(mine.Dist("d").count, 1u);
  EXPECT_EQ(mine.Spans().at({"s", ""}).count, 1u);
  // The process buffers record exactly as they would without the scope.
  const Snapshot all = Capture();
  EXPECT_EQ(all.Counter("a"), 3u);
  EXPECT_EQ(all.Counter("outside"), 1u);
  EXPECT_EQ(all.Dist("d").count, 1u);
  EXPECT_TRUE(all.HasSpan("s"));
  // Reset clears the process buffers only; the sink belongs to its owner.
  Reset();
  EXPECT_EQ(sink.Capture().Counter("a"), 2u);
}

TEST_F(TelemetryTest, NullScopeRecordsNothingOnTheCallingThread) {
  Sink sink;
  uint64_t other_thread = 0;
  {
    const Scope outer(&sink);
    const Scope mute(nullptr);
    Count("muted");
    Record("muted", 1.0);
    { Span span("muted"); }
    // Other threads are unaffected.
    std::thread([] { Count("other"); }).join();
    other_thread = Capture().Counter("other");
  }
  const Snapshot all = Capture();
  EXPECT_EQ(other_thread, 1u);
  EXPECT_EQ(all.Counter("muted"), 0u);
  EXPECT_EQ(all.Dist("muted").count, 0u);
  EXPECT_FALSE(all.HasSpan("muted"));
  EXPECT_TRUE(sink.Capture().Counters().empty());
}

TEST_F(TelemetryTest, ScopesNestAndRestore) {
  Sink outer_sink;
  Sink inner_sink;
  {
    const Scope outer(&outer_sink);
    Count("x");
    {
      const Scope inner(&inner_sink);
      Count("x", 10);
      {
        const Scope mute(nullptr);
        Count("x", 100);
      }
      Count("x", 10);
    }
    Count("x");
  }
  Count("x", 1000);
  EXPECT_EQ(outer_sink.Capture().Counter("x"), 2u);
  EXPECT_EQ(inner_sink.Capture().Counter("x"), 20u);
  EXPECT_EQ(Capture().Counter("x"), 1022u);
}

TEST_F(TelemetryTest, ScopedParallelForLandsInTheSinkExactly) {
  auto body = [](size_t i) {
    Count("n");
    Count("weighted", i);
    Record("v", static_cast<double>(i % 10));
    Span span("item");
  };
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    Reset();
    ParallelFor(0, 1000, body);
    const Snapshot unscoped = Capture();

    Reset();
    Sink sink;
    {
      const Scope scope(&sink);
      ParallelFor(0, 1000, body);
    }
    const Snapshot mine = sink.Capture();
    EXPECT_EQ(mine.Counter("n"), 1000u) << threads;
    EXPECT_EQ(mine.Counter("weighted"), 999u * 1000u / 2) << threads;
    EXPECT_EQ(mine.Dist("v").count, 1000u) << threads;
    uint64_t items = 0;
    for (const auto& [key, stats] : mine.Spans())
      if (key.first == "item") items += stats.count;
    EXPECT_EQ(items, 1000u) << threads;
    // The process-global record is what it is without a scope.
    const Snapshot all = Capture();
    EXPECT_EQ(all.Counters(), unscoped.Counters()) << threads;
    EXPECT_EQ(all.Summaries(), unscoped.Summaries()) << threads;
    EXPECT_EQ(mine.Counters(), all.Counters()) << threads;
  }
  SetNumThreads(0);
}

}  // namespace
}  // namespace stemroot::telemetry
