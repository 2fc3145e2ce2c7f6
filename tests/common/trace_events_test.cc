/// \file
/// Chrome-trace event recording: on/off contract, ring wrap + drop
/// accounting, export repair of unbalanced pairs, schema validation, and
/// the Scope mid-toggle guarantee.

#include "common/trace_events.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"

namespace stemroot::trace_events {
namespace {

/// Every test starts from a clean, disabled subsystem and restores it:
/// trace state is process-global.
class TraceEventsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(false);
    SetRingCapacity(65536);
    Reset();  // existing rings adopt the capacity on Reset
  }
  void TearDown() override {
    SetEnabled(false);
    SetRingCapacity(65536);
    Reset();
  }
};

TEST_F(TraceEventsTest, DisabledRecordsNothing) {
  Begin("a");
  Instant("i");
  CounterValue("c", 1.0);
  { Scope scope("s"); }
  const Stats stats = GetStats();
  EXPECT_EQ(stats.recorded, 0u);
  EXPECT_EQ(stats.dropped, 0u);

  std::string error;
  TraceInfo info;
  EXPECT_TRUE(ValidateTraceJson(ExportJson(), &error, nullptr, &info))
      << error;
  EXPECT_EQ(info.events, 0u);
}

TEST_F(TraceEventsTest, RecordsAllPhasesAndValidates) {
  SetEnabled(true);
  Begin("outer");
  Instant("tick");
  CounterValue("gauge", 42.5);
  {
    Scope scope("inner");
    Instant("nested");
  }
  EndOpen("outer");
  SetEnabled(false);

  std::string error;
  std::vector<std::string> names;
  TraceInfo info;
  const std::string json = ExportJson();
  ASSERT_TRUE(ValidateTraceJson(json, &error, &names, &info)) << error;
  EXPECT_EQ(info.events, 7u);
  EXPECT_EQ(info.threads, 1u);
  for (const char* expected : {"outer", "tick", "gauge", "inner", "nested"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  EXPECT_NE(json.find("\"stemroot-trace-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST_F(TraceEventsTest, RingWrapDropsOldestAndExportStaysBalanced) {
  SetRingCapacity(8);
  Reset();
  SetEnabled(true);
  // 50 balanced pairs through an 8-slot ring: most B's are overwritten,
  // leaving E's whose begins are gone. Export must repair to balance.
  for (int i = 0; i < 50; ++i) {
    Begin("work");
    EndOpen("work");
  }
  SetEnabled(false);

  const Stats stats = GetStats();
  EXPECT_EQ(stats.recorded, 100u);
  EXPECT_EQ(stats.dropped, 92u);

  std::string error;
  TraceInfo info;
  const std::string json = ExportJson();
  ASSERT_TRUE(ValidateTraceJson(json, &error, nullptr, &info)) << error;
  // The exported events are a subset of the 8 surviving slots.
  EXPECT_LE(info.events, 8u);
  EXPECT_NE(json.find("\"dropped\":92"), std::string::npos);
}

TEST_F(TraceEventsTest, UnclosedBeginIsRepairedOut) {
  SetEnabled(true);
  Begin("never_closed");
  Instant("marker");
  SetEnabled(false);

  std::string error;
  std::vector<std::string> names;
  ASSERT_TRUE(ValidateTraceJson(ExportJson(), &error, &names)) << error;
  // The dangling begin is skipped; the instant survives.
  EXPECT_EQ(std::find(names.begin(), names.end(), "never_closed"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "marker"), names.end());
}

TEST_F(TraceEventsTest, ScopeEmitsEndWhenDisabledMidScope) {
  SetEnabled(true);
  {
    Scope scope("toggled");
    SetEnabled(false);
    // Destructor must still emit the matching end: pairs stay balanced.
  }
  std::string error;
  TraceInfo info;
  ASSERT_TRUE(ValidateTraceJson(ExportJson(), &error, nullptr, &info))
      << error;
  EXPECT_EQ(info.events, 2u);
}

TEST_F(TraceEventsTest, ScopeConstructedWhileDisabledStaysInert) {
  {
    Scope scope("inert");
    SetEnabled(true);
    // Enabled only mid-scope: the begin was never emitted, so the
    // destructor must not emit a dangling end.
  }
  SetEnabled(false);
  EXPECT_EQ(GetStats().recorded, 0u);
}

TEST_F(TraceEventsTest, ResetClearsEventsAndDropCounters) {
  SetRingCapacity(4);
  Reset();
  SetEnabled(true);
  for (int i = 0; i < 10; ++i) Instant("x");
  SetEnabled(false);
  EXPECT_GT(GetStats().dropped, 0u);

  Reset();
  const Stats stats = GetStats();
  EXPECT_EQ(stats.recorded, 0u);
  EXPECT_EQ(stats.dropped, 0u);

  TraceInfo info;
  std::string error;
  ASSERT_TRUE(ValidateTraceJson(ExportJson(), &error, nullptr, &info))
      << error;
  EXPECT_EQ(info.events, 0u);
}

TEST_F(TraceEventsTest, RingCapacityRejectsZero) {
  EXPECT_THROW(SetRingCapacity(0), std::invalid_argument);
}

TEST_F(TraceEventsTest, MultiThreadedRecordingValidates) {
  SetEnabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 100; ++i) {
        Scope scope("thread.work");
        Instant("thread.tick");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  SetEnabled(false);

  std::string error;
  TraceInfo info;
  ASSERT_TRUE(ValidateTraceJson(ExportJson(), &error, nullptr, &info))
      << error;
  EXPECT_EQ(info.events, 4u * 300u);
  EXPECT_EQ(info.threads, 4u);
}

TEST_F(TraceEventsTest, ParallelForEmitsChunkScopes) {
  SetNumThreads(2);
  SetEnabled(true);
  ParallelFor(0, 64, [](size_t) {}, /*grain=*/8);
  SetEnabled(false);
  SetNumThreads(0);

  std::string error;
  std::vector<std::string> names;
  ASSERT_TRUE(ValidateTraceJson(ExportJson(), &error, &names)) << error;
  EXPECT_NE(std::find(names.begin(), names.end(), "parallel.chunk"),
            names.end());
}

TEST_F(TraceEventsTest, ValidatorRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(ValidateTraceJson("not json", &error));
  EXPECT_FALSE(ValidateTraceJson("{}", &error));
  // Wrong schema tag.
  EXPECT_FALSE(ValidateTraceJson(
      R"({"displayTimeUnit":"ms","otherData":{"schema":"other","recorded":0,)"
      R"("dropped":0,"repaired":0},"traceEvents":[]})",
      &error));
  // Unbalanced: E without B.
  EXPECT_FALSE(ValidateTraceJson(
      R"({"displayTimeUnit":"ms","otherData":{"schema":"stemroot-trace-v1",)"
      R"("recorded":1,"dropped":0,"repaired":0},"traceEvents":[)"
      R"({"name":"x","ph":"E","ts":1.0,"pid":1,"tid":0}]})",
      &error));
  EXPECT_NE(error.find("without a matching begin"), std::string::npos)
      << error;
  // Name-mismatched B/E.
  EXPECT_FALSE(ValidateTraceJson(
      R"({"displayTimeUnit":"ms","otherData":{"schema":"stemroot-trace-v1",)"
      R"("recorded":2,"dropped":0,"repaired":0},"traceEvents":[)"
      R"({"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0},)"
      R"({"name":"b","ph":"E","ts":2.0,"pid":1,"tid":0}]})",
      &error));
  // Backwards per-thread timestamps.
  EXPECT_FALSE(ValidateTraceJson(
      R"({"displayTimeUnit":"ms","otherData":{"schema":"stemroot-trace-v1",)"
      R"("recorded":2,"dropped":0,"repaired":0},"traceEvents":[)"
      R"({"name":"a","ph":"B","ts":2.0,"pid":1,"tid":0},)"
      R"({"name":"a","ph":"E","ts":1.0,"pid":1,"tid":0}]})",
      &error));
  // Counter without args.value.
  EXPECT_FALSE(ValidateTraceJson(
      R"({"displayTimeUnit":"ms","otherData":{"schema":"stemroot-trace-v1",)"
      R"("recorded":1,"dropped":0,"repaired":0},"traceEvents":[)"
      R"({"name":"c","ph":"C","ts":1.0,"pid":1,"tid":0}]})",
      &error));
}

}  // namespace
}  // namespace stemroot::trace_events
