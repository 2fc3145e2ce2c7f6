#include "eval/journal_tail.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/journal.h"

namespace stemroot::eval {
namespace {

std::string TempJournalPath(const std::string& tag) {
  return ::testing::TempDir() + "/journal_tail_" + tag + ".jsonl";
}

TEST(SeverityRankTest, OrdersTheCanonicalTokens) {
  EXPECT_EQ(SeverityRank("debug"), 0);
  EXPECT_EQ(SeverityRank("info"), 1);
  EXPECT_EQ(SeverityRank("warn"), 2);
  EXPECT_EQ(SeverityRank("error"), 3);
  EXPECT_EQ(SeverityRank("fatal"), -1);
  EXPECT_EQ(SeverityRank(""), -1);
}

TEST(FormatJournalLineTest, RendersReservedAndCustomFields) {
  const std::string line =
      R"({"ts_us":12345678,"tid":3,"seq":7,"sev":"warn",)"
      R"("event":"request.slow","session":2,"verb":"feed",)"
      R"("latency_us":312000.0,"ok":true})";
  std::string out;
  ASSERT_TRUE(FormatJournalLine(line, JournalTailOptions{}, out));
  EXPECT_NE(out.find("12.345678s"), std::string::npos) << out;
  EXPECT_NE(out.find("warn"), std::string::npos);
  EXPECT_NE(out.find("request.slow"), std::string::npos);
  // Custom fields in emit order, key=value.
  const size_t session_at = out.find("session=2");
  const size_t verb_at = out.find("verb=\"feed\"");
  const size_t latency_at = out.find("latency_us=312000");
  ASSERT_NE(session_at, std::string::npos) << out;
  ASSERT_NE(verb_at, std::string::npos) << out;
  ASSERT_NE(latency_at, std::string::npos) << out;
  EXPECT_LT(session_at, verb_at);
  EXPECT_LT(verb_at, latency_at);
  EXPECT_NE(out.find("ok=true"), std::string::npos) << out;
  EXPECT_NE(out.find("(seq 7)"), std::string::npos) << out;
}

TEST(FormatJournalLineTest, ShowsDroppedGap) {
  const std::string line =
      R"({"ts_us":1,"tid":1,"seq":9,"sev":"info","event":"e",)"
      R"("dropped_since_last":4})";
  std::string out;
  ASSERT_TRUE(FormatJournalLine(line, JournalTailOptions{}, out));
  EXPECT_NE(out.find("[+4 dropped]"), std::string::npos) << out;
}

TEST(FormatJournalLineTest, MinSeverityFilters) {
  JournalTailOptions options;
  options.min_severity = "warn";
  std::string out;
  EXPECT_FALSE(FormatJournalLine(
      R"({"ts_us":1,"tid":1,"seq":0,"sev":"info","event":"a"})", options,
      out));
  EXPECT_TRUE(FormatJournalLine(
      R"({"ts_us":1,"tid":1,"seq":1,"sev":"error","event":"b"})", options,
      out));
  // Unknown or missing severity always prints: it is itself a signal.
  EXPECT_TRUE(FormatJournalLine(
      R"({"ts_us":1,"tid":1,"seq":2,"sev":"weird","event":"c"})", options,
      out));
  EXPECT_TRUE(FormatJournalLine(
      R"({"ts_us":1,"tid":1,"seq":3,"event":"d"})", options, out));
}

TEST(FormatJournalLineTest, EventFilterIsExact) {
  JournalTailOptions options;
  options.event = "session.open";
  std::string out;
  EXPECT_TRUE(FormatJournalLine(
      R"({"ts_us":1,"tid":1,"seq":0,"sev":"info","event":"session.open"})",
      options, out));
  EXPECT_FALSE(FormatJournalLine(
      R"({"ts_us":1,"tid":1,"seq":1,"sev":"info","event":"session.close"})",
      options, out));
}

TEST(FormatJournalLineTest, MalformedLineThrows) {
  std::string out;
  EXPECT_THROW(FormatJournalLine("not json", JournalTailOptions{}, out),
               std::invalid_argument);
  EXPECT_THROW(FormatJournalLine("[1,2,3]", JournalTailOptions{}, out),
               std::invalid_argument);
}

TEST(FormatJournalLineTest, HostileReservedValuesRenderWithoutThem) {
  for (const char* line :
       {R"({"ts_us":-1,"tid":1,"seq":-2,"sev":"info","event":"a"})",
        R"({"ts_us":1e300,"tid":1,"seq":1e300,"sev":"info","event":"a",)"
        R"("dropped_since_last":1e300})",
        R"({"ts_us":1.5,"tid":1,"seq":0.5,"sev":"info","event":"a",)"
        R"("dropped_since_last":-4})",
        R"({"ts_us":"7","tid":1,"seq":"8","sev":"info","event":"a",)"
        R"("dropped_since_last":"9"})"}) {
    std::string out;
    ASSERT_TRUE(FormatJournalLine(line, JournalTailOptions{}, out)) << line;
    EXPECT_EQ(out.find("(seq"), std::string::npos) << out;
    EXPECT_EQ(out.find("dropped]"), std::string::npos) << out;
    EXPECT_NE(out.find("[      0.000000s] info  a"), std::string::npos)
        << out;
  }
}

TEST(JournalTailTest, RoundTripsWriterOutput) {
  // The round-trip contract: everything the journal writer emits, the
  // tail renderer can read back.
  const std::string path = TempJournalPath("roundtrip");
  journal::Open(path);
  journal::Emit(journal::Severity::kInfo, "session.open",
                {{"session", uint64_t{1}}, {"source", "rodinia/hotspot"}});
  journal::Emit(journal::Severity::kWarn, "mem_highwater",
                {{"rss_bytes", uint64_t{123456}},
                 {"peak_rss_bytes", uint64_t{123456}}});
  journal::Emit(journal::Severity::kError, "request.error",
                {{"detail", "boom \"quoted\""}});
  journal::Close();

  std::ostringstream out;
  const JournalTailResult result =
      TailJournal(path, JournalTailOptions{}, out);
  EXPECT_EQ(result.printed, 3u);
  EXPECT_EQ(result.filtered, 0u);
  EXPECT_EQ(result.unparseable, 0u);
  const std::string text = out.str();
  EXPECT_NE(text.find("session.open"), std::string::npos) << text;
  EXPECT_NE(text.find("source=\"rodinia/hotspot\""), std::string::npos);
  EXPECT_NE(text.find("mem_highwater"), std::string::npos);
  EXPECT_NE(text.find("rss_bytes=123456"), std::string::npos);
  EXPECT_NE(text.find("request.error"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JournalTailTest, FiltersBySeverityAndEvent) {
  const std::string path = TempJournalPath("filters");
  journal::Open(path);
  journal::Emit(journal::Severity::kDebug, "chatter", {});
  journal::Emit(journal::Severity::kInfo, "session.open", {});
  journal::Emit(journal::Severity::kWarn, "mem_highwater", {});
  journal::Emit(journal::Severity::kError, "request.error", {});
  journal::Close();

  JournalTailOptions warn_up;
  warn_up.min_severity = "warn";
  std::ostringstream out1;
  const JournalTailResult by_sev = TailJournal(path, warn_up, out1);
  EXPECT_EQ(by_sev.printed, 2u);
  EXPECT_EQ(by_sev.filtered, 2u);

  JournalTailOptions by_name;
  by_name.event = "session.open";
  std::ostringstream out2;
  const JournalTailResult by_event = TailJournal(path, by_name, out2);
  EXPECT_EQ(by_event.printed, 1u);
  EXPECT_EQ(by_event.filtered, 3u);
  EXPECT_EQ(out2.str().find("mem_highwater"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JournalTailTest, TornTailCountsUnparseableAndMissingFileThrows) {
  const std::string path = TempJournalPath("torn");
  {
    std::ofstream raw(path, std::ios::binary | std::ios::trunc);
    raw << R"({"ts_us":1,"tid":1,"seq":0,"sev":"info","event":"a"})" << "\n";
    raw << R"({"ts_us":2,"tid":1,"seq":1,"sev":"in)";  // crash mid-append
  }
  std::ostringstream out;
  const JournalTailResult result =
      TailJournal(path, JournalTailOptions{}, out);
  EXPECT_EQ(result.printed, 1u);
  EXPECT_EQ(result.unparseable, 1u);
  std::remove(path.c_str());

  EXPECT_THROW(TailJournal(path, JournalTailOptions{}, out),
               std::runtime_error);
}

TEST(JournalTailTest, FollowPicksUpAppendedLines) {
  const std::string path = TempJournalPath("follow");
  {
    std::ofstream raw(path, std::ios::binary | std::ios::trunc);
    raw << R"({"ts_us":1,"tid":1,"seq":0,"sev":"info","event":"first"})"
        << "\n";
  }
  JournalTailOptions options;
  options.follow = true;
  options.poll_ms = 10;
  options.max_idle_polls = 30;  // bounded for the test

  std::thread appender([&path] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    std::ofstream raw(path, std::ios::binary | std::ios::app);
    raw << R"({"ts_us":2,"tid":1,"seq":1,"sev":"info","event":"second"})"
        << "\n";
  });
  std::ostringstream out;
  const JournalTailResult result = TailJournal(path, options, out);
  appender.join();
  EXPECT_EQ(result.printed, 2u);
  EXPECT_NE(out.str().find("second"), std::string::npos) << out.str();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stemroot::eval
