#include <gtest/gtest.h>

#include <cmath>

#include "common/flags.h"
#include "common/log.h"
#include "common/str.h"
#include "common/table.h"

namespace stemroot {
namespace {

TEST(FormatTest, PrintfSemantics) {
  EXPECT_EQ(Format("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(Format("empty"), "empty");
}

TEST(SplitTest, PreservesEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("sgemm_128", "sgemm"));
  EXPECT_FALSE(StartsWith("sg", "sgemm"));
}

TEST(HumanCountTest, Suffixes) {
  EXPECT_EQ(HumanCount(950), "950.0");
  EXPECT_EQ(HumanCount(11599870), "11.6M");
  EXPECT_EQ(HumanCount(2.5e9), "2.5G");
  EXPECT_EQ(HumanCount(1500), "1.5k");
}

TEST(HumanDurationTest, UnitsProgress) {
  EXPECT_EQ(HumanDuration(500), "500.0us");
  EXPECT_EQ(HumanDuration(1500), "1.5ms");
  EXPECT_EQ(HumanDuration(2.5e6), "2.50s");
  EXPECT_EQ(HumanDuration(90e6), "1.5min");
  // The paper's 78.68-day profiling estimate renders in days.
  EXPECT_NE(HumanDuration(78.68 * 24 * 3600 * 1e6).find("days"),
            std::string::npos);
}

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer_name", "12345"});
  const std::string render = table.Render();
  // Header rule present, all rows present.
  EXPECT_NE(render.find("----"), std::string::npos);
  EXPECT_NE(render.find("longer_name"), std::string::npos);
  // Column 2 starts at the same offset in the header and every data row.
  const auto lines = Split(render, '\n');
  ASSERT_GE(lines.size(), 4u);
  const size_t header_pos = lines[0].find("value");
  EXPECT_EQ(lines[2].find("1"), header_pos);      // row "x 1"
  EXPECT_EQ(lines[3].find("12345"), header_pos);  // row "longer_name 12345"
}

TEST(TextTableTest, ArityEnforced) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.AddRow({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTableTest, NumFormatsNanAsNa) {
  EXPECT_EQ(TextTable::Num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::Num(std::nan(""), 2), "N/A");
}

TEST(LogTest, LevelGates) {
  const LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kSilent);
  // Nothing to assert on output, but these must not crash or throw.
  Inform("hidden %d", 1);
  Warn("hidden %d", 2);
  SetLogLevel(old);
}

TEST(LogTest, LevelNamesRoundTrip) {
  EXPECT_EQ(LogLevelFromName("silent"), LogLevel::kSilent);
  EXPECT_EQ(LogLevelFromName("warn"), LogLevel::kWarn);
  EXPECT_EQ(LogLevelFromName("inform"), LogLevel::kInform);
  EXPECT_EQ(LogLevelFromName("debug"), LogLevel::kDebug);
  EXPECT_FALSE(LogLevelFromName("verbose").has_value());
  EXPECT_FALSE(LogLevelFromName("").has_value());
  EXPECT_FALSE(LogLevelFromName("WARN").has_value());  // case-sensitive
}

// The --log-level plumbing the CLI and benches use: a flag value parsed
// through Flags lands on SetLogLevel.
TEST(LogTest, LogLevelFlagDrivesGlobalLevel) {
  const LogLevel old = GetLogLevel();
  const char* argv[] = {"--log-level", "debug"};
  const Flags flags =
      Flags::Parse(2, argv, {{"log-level", FlagKind::kString, "warn", ""}});
  const auto level = LogLevelFromName(flags.String("log-level"));
  ASSERT_TRUE(level.has_value());
  SetLogLevel(*level);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(old);
}

}  // namespace
}  // namespace stemroot
