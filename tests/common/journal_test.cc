#include "common/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"

namespace stemroot {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/journal_test_" + name + ".jsonl";
}

std::vector<json::Value> ReadEvents(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<json::Value> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    json::Value event;
    std::string error;
    EXPECT_TRUE(json::Parse(line, event, &error)) << error << ": " << line;
    events.push_back(std::move(event));
  }
  return events;
}

/// Every test owns the process-global journal for its duration.
class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    journal::Close();
    journal::ResetStats();
    journal::SetRateLimit(2000);
  }
  void TearDown() override {
    journal::Close();
    journal::SetRateLimit(2000);
  }
};

TEST_F(JournalTest, DisabledByDefaultAndEmitIsNoOp) {
  EXPECT_FALSE(journal::Enabled());
  journal::Emit(journal::Severity::kInfo, "never.written");
  EXPECT_EQ(journal::GetStats().emitted, 0u);
}

TEST_F(JournalTest, SeverityNames) {
  EXPECT_STREQ(journal::SeverityName(journal::Severity::kDebug), "debug");
  EXPECT_STREQ(journal::SeverityName(journal::Severity::kInfo), "info");
  EXPECT_STREQ(journal::SeverityName(journal::Severity::kWarn), "warn");
  EXPECT_STREQ(journal::SeverityName(journal::Severity::kError), "error");
}

TEST_F(JournalTest, EmitWritesReservedKeysAndTypedFields) {
  const std::string path = TempPath("emit");
  std::remove(path.c_str());
  journal::Open(path);
  EXPECT_TRUE(journal::Enabled());
  journal::Emit(journal::Severity::kWarn, "request.slow",
                {{"verb", "feed"},
                 {"latency_us", 312.5},
                 {"session", uint64_t{7}},
                 {"ok", false}});
  journal::Close();
  EXPECT_FALSE(journal::Enabled());

  const std::vector<json::Value> events = ReadEvents(path);
  ASSERT_EQ(events.size(), 1u);
  const json::Value& e = events[0];
  ASSERT_TRUE(e.IsObject());
  EXPECT_TRUE(e.Find("ts_us") != nullptr && e.Find("ts_us")->IsNumber());
  EXPECT_TRUE(e.Find("tid") != nullptr && e.Find("tid")->IsNumber());
  EXPECT_TRUE(e.Find("seq") != nullptr && e.Find("seq")->IsNumber());
  ASSERT_TRUE(e.Find("sev") != nullptr && e.Find("sev")->IsString());
  EXPECT_EQ(e.Find("sev")->string, "warn");
  ASSERT_TRUE(e.Find("event") != nullptr && e.Find("event")->IsString());
  EXPECT_EQ(e.Find("event")->string, "request.slow");
  ASSERT_TRUE(e.Find("verb") != nullptr && e.Find("verb")->IsString());
  EXPECT_EQ(e.Find("verb")->string, "feed");
  ASSERT_TRUE(e.Find("latency_us") != nullptr);
  EXPECT_DOUBLE_EQ(e.Find("latency_us")->number, 312.5);
  ASSERT_TRUE(e.Find("session") != nullptr);
  EXPECT_DOUBLE_EQ(e.Find("session")->number, 7.0);
  ASSERT_TRUE(e.Find("ok") != nullptr);
  EXPECT_EQ(e.Find("ok")->kind, json::Value::Kind::kBool);
}

TEST_F(JournalTest, SequenceIsGapFreeAndTimestampsMonotone) {
  const std::string path = TempPath("seq");
  std::remove(path.c_str());
  journal::Open(path);
  for (int i = 0; i < 20; ++i)
    journal::Emit(journal::Severity::kInfo, "tick", {{"i", i}});
  journal::Close();

  const std::vector<json::Value> events = ReadEvents(path);
  ASSERT_EQ(events.size(), 20u);
  uint64_t last_ts = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const uint64_t seq =
        static_cast<uint64_t>(events[i].Find("seq")->number);
    if (i > 0) {
      const uint64_t prev =
          static_cast<uint64_t>(events[i - 1].Find("seq")->number);
      EXPECT_EQ(seq, prev + 1) << "seq gap at line " << i;
    }
    const uint64_t ts =
        static_cast<uint64_t>(events[i].Find("ts_us")->number);
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
  }
}

TEST_F(JournalTest, ConcurrentEmittersKeepTimestampsMonotone) {
  const std::string path = TempPath("concurrent");
  std::remove(path.c_str());
  journal::SetRateLimit(0);
  journal::Open(path);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([t] {
      for (int i = 0; i < 2000; ++i)
        journal::Emit(journal::Severity::kInfo, "tick", {{"t", t}});
    });
  for (std::thread& thread : threads) thread.join();
  journal::Close();

  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::string error;
  EXPECT_TRUE(journal::ValidateJournal(text, {}, &error)) << error;
  EXPECT_EQ(ReadEvents(path).size(), 8000u);
}

TEST_F(JournalTest, RateLimitDropsAndAnnotatesNextEvent) {
  const std::string path = TempPath("ratelimit");
  std::remove(path.c_str());
  journal::Open(path);
  journal::SetRateLimit(5);
  // A burst far over budget lands in a single token-bucket second.
  for (int i = 0; i < 50; ++i)
    journal::Emit(journal::Severity::kDebug, "storm", {{"i", i}});
  const journal::Stats mid = journal::GetStats();
  EXPECT_EQ(mid.emitted, 5u);
  EXPECT_EQ(mid.dropped, 45u);

  // Errors bypass the limiter even while the bucket is empty, and the
  // first post-drop write carries the drop count.
  journal::Emit(journal::Severity::kError, "storm.error");
  journal::Close();
  const journal::Stats final_stats = journal::GetStats();
  EXPECT_EQ(final_stats.emitted, 6u);
  EXPECT_EQ(final_stats.errors, 1u);

  const std::vector<json::Value> events = ReadEvents(path);
  ASSERT_EQ(events.size(), 6u);
  const json::Value& error_event = events.back();
  EXPECT_EQ(error_event.Find("event")->string, "storm.error");
  ASSERT_TRUE(error_event.Find("dropped_since_last") != nullptr);
  EXPECT_DOUBLE_EQ(error_event.Find("dropped_since_last")->number, 45.0);
}

TEST_F(JournalTest, ZeroRateLimitDisablesTheLimiter) {
  const std::string path = TempPath("nolimit");
  std::remove(path.c_str());
  journal::Open(path);
  journal::SetRateLimit(0);
  for (int i = 0; i < 5000; ++i)
    journal::Emit(journal::Severity::kDebug, "flood");
  journal::Close();
  const journal::Stats stats = journal::GetStats();
  EXPECT_EQ(stats.emitted, 5000u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST_F(JournalTest, ReopenAppendsAndKeepsSequenceUnique) {
  const std::string path = TempPath("reopen");
  std::remove(path.c_str());
  journal::Open(path);
  journal::Emit(journal::Severity::kInfo, "first");
  journal::Close();
  journal::Open(path);
  journal::Emit(journal::Severity::kInfo, "second");
  journal::Close();

  const std::vector<json::Value> events = ReadEvents(path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].Find("event")->string, "first");
  EXPECT_EQ(events[1].Find("event")->string, "second");
  // seq stays process-unique across reopen.
  EXPECT_GT(events[1].Find("seq")->number, events[0].Find("seq")->number);
}

TEST_F(JournalTest, OpenThrowsOnUnwritablePath) {
  EXPECT_THROW(journal::Open("/no/such/dir/journal.jsonl"),
               std::runtime_error);
  EXPECT_FALSE(journal::Enabled());
}

TEST_F(JournalTest, StringEscaping) {
  const std::string path = TempPath("escape");
  std::remove(path.c_str());
  journal::Open(path);
  journal::Emit(journal::Severity::kInfo, "escape.check",
                {{"text", "line\nbreak \"quoted\" back\\slash"}});
  journal::Close();
  const std::vector<json::Value> events = ReadEvents(path);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].Find("text")->string,
            "line\nbreak \"quoted\" back\\slash");
}

TEST(JournalReadLineTest, TypesTheReservedFieldsAndKeepsTheRest) {
  const std::optional<journal::Line> line = journal::ReadLine(
      R"({"ts_us":12,"tid":3,"seq":7,"sev":"warn","event":"request.slow",)"
      R"("session":2,"dropped_since_last":4,"verb":"feed"})");
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->WellFormed());
  EXPECT_EQ(line->ts_us, 12u);
  EXPECT_EQ(line->tid, 3u);
  EXPECT_EQ(line->seq, 7u);
  EXPECT_EQ(line->dropped_since_last, 4u);
  EXPECT_EQ(line->sev, "warn");
  EXPECT_EQ(line->event, "request.slow");
  ASSERT_EQ(line->fields.size(), 2u);
  EXPECT_EQ(line->fields[0].first, "session");
  EXPECT_EQ(line->fields[1].first, "verb");

  EXPECT_FALSE(journal::ReadLine(R"({"ts_us":1,"tid":1,"seq":0,"se)"));
  EXPECT_FALSE(journal::ReadLine("[1,2]"));
  // Missing keys are absent, not malformed; 2^53 is the largest exact
  // integer and still accepted.
  const std::optional<journal::Line> sparse =
      journal::ReadLine(R"({"ts_us":9007199254740992,"event":"e"})");
  ASSERT_TRUE(sparse.has_value());
  EXPECT_EQ(sparse->ts_us, 9007199254740992u);
  EXPECT_FALSE(sparse->seq.has_value());
  EXPECT_FALSE(sparse->malformed);
  EXPECT_FALSE(sparse->WellFormed());
}

/// Lines whose reserved integers have no exact uint64_t value, or whose
/// reserved keys have the wrong JSON type.
const char* const kHostileLines[] = {
    R"({"ts_us":-1,"tid":1,"seq":0,"sev":"info","event":"a"})",
    R"({"ts_us":1,"tid":1,"seq":1e300,"sev":"info","event":"a"})",
    R"({"ts_us":1.5,"tid":1,"seq":0,"sev":"info","event":"a"})",
    R"({"ts_us":1,"tid":1,"seq":"0","sev":"info","event":"a"})",
    R"({"ts_us":9007199254740994,"tid":1,"seq":0,"sev":"info","event":"a"})",
    R"({"ts_us":1,"tid":1,"seq":0,"sev":"info","event":"a",)"
    R"("dropped_since_last":-3})",
    R"({"ts_us":1,"tid":1,"seq":0,"sev":7,"event":"a"})",
};

TEST(JournalReadLineTest, HostileReservedValuesAreAbsentAndMalformed) {
  for (const char* text : kHostileLines) {
    const std::optional<journal::Line> line = journal::ReadLine(text);
    ASSERT_TRUE(line.has_value()) << text;
    EXPECT_TRUE(line->malformed) << text;
    EXPECT_FALSE(line->WellFormed()) << text;
  }
}

TEST(ValidateJournalTest, AcceptsWriterOutputAndToleratesTornFinalLine) {
  const std::string good =
      R"({"ts_us":1,"tid":1,"seq":4,"sev":"info","event":"session.open"})"
      "\n"
      R"({"ts_us":1,"tid":2,"seq":5,"sev":"error","event":"b"})"
      "\n";
  std::string error;
  EXPECT_TRUE(journal::ValidateJournal(good, {"session.open"}, &error))
      << error;
  EXPECT_TRUE(journal::ValidateJournal(
      good + R"({"ts_us":2,"tid":1,"seq":6,"sev":"in)", {}, &error))
      << error;
  // A torn line anywhere but last is corruption.
  EXPECT_FALSE(journal::ValidateJournal(
      R"({"ts_us":2,"tid":1,"se)"
      "\n" + good,
      {}, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_FALSE(journal::ValidateJournal(good, {"session.close"}, &error));
  EXPECT_NE(error.find("session.close"), std::string::npos) << error;
}

TEST(ValidateJournalTest, RejectsOrderingAndSeverityViolations) {
  std::string error;
  EXPECT_FALSE(journal::ValidateJournal(
      R"({"ts_us":5,"tid":1,"seq":0,"sev":"info","event":"a"})"
      "\n"
      R"({"ts_us":4,"tid":1,"seq":1,"sev":"info","event":"a"})",
      {}, &error));
  EXPECT_NE(error.find("ts_us went backwards"), std::string::npos) << error;
  EXPECT_FALSE(journal::ValidateJournal(
      R"({"ts_us":1,"tid":1,"seq":0,"sev":"info","event":"a"})"
      "\n"
      R"({"ts_us":2,"tid":1,"seq":2,"sev":"info","event":"a"})",
      {}, &error));
  EXPECT_NE(error.find("seq gap"), std::string::npos) << error;
  EXPECT_FALSE(journal::ValidateJournal(
      R"({"ts_us":1,"tid":1,"seq":0,"sev":"fatal","event":"a"})", {},
      &error));
  EXPECT_NE(error.find("unknown severity"), std::string::npos) << error;
}

TEST(ValidateJournalTest, RejectsEveryHostileLine) {
  for (const char* text : kHostileLines) {
    std::string error;
    // Followed by a good line, so the hostile one is never the
    // tolerated torn tail.
    EXPECT_FALSE(journal::ValidateJournal(
        std::string(text) + "\n" +
            R"({"ts_us":9,"tid":1,"seq":1,"sev":"info","event":"b"})",
        {}, &error))
        << text;
    EXPECT_NE(error.find("reserved key"), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace stemroot
