#include "common/flags.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace stemroot {
namespace {

/// The grammar every case parses against (plus its `extra` rows).
std::vector<FlagSpec> Table() {
  return {
      {"in", FlagKind::kString, "", "input"},
      {"name", FlagKind::kString, "", "a name"},
      {"gpu", FlagKind::kString, "rtx2080", "gpu preset"},
      {"epsilon", FlagKind::kDouble, "0.05", "error bound"},
      {"seed", FlagKind::kUint, "0", "seed"},
      {"reps", FlagKind::kUint, "10", "repetitions", 20},
      {"small", FlagKind::kUint, "", "a 32-bit count", 4294967295u},
      {"flag", FlagKind::kBool, "true", "a switch"},
      {"flush", FlagKind::kBool, "false", "another switch"},
      {"list", FlagKind::kList, "", "items"},
      {"manifest", FlagKind::kPath, "", "a file"},
      {"cache", FlagKind::kPath, "dir", "a directory"},
  };
}

/// One command line and what parsing it must give: the FlagError text,
/// or (with `error` empty) the assertions `check` makes on the result.
struct Case {
  std::string name;
  std::vector<const char*> argv;
  std::string error;
  std::function<void(const Flags&)> check = nullptr;
  size_t max_positional = 0;
  std::vector<FlagSpec> extra = {};
};

const FlagSpec kRequiredOut = Required({"out", FlagKind::kString, "", "out"});

const std::vector<Case>& Cases() {
  static const std::vector<Case> cases = {
      {"PositionalThenFlags",
       {"sample", "--in", "t.bin", "--epsilon", "0.1"},
       "",
       [](const Flags& f) {
         EXPECT_EQ(f.Positional(), std::vector<std::string>{"sample"});
         EXPECT_EQ(f.String("in"), "t.bin");
         EXPECT_DOUBLE_EQ(f.Double("epsilon"), 0.1);
       },
       1},
      {"EqualsSyntax", {"--seed=42", "--name=x", "--list="}, "",
       [](const Flags& f) {
         EXPECT_EQ(f.Uint("seed"), 42u);
         EXPECT_EQ(f.String("name"), "x");
         EXPECT_TRUE(f.Has("list"));
         EXPECT_TRUE(f.List("list").empty());
       }},
      {"DefaultsApplyWhenMissing", {}, "",
       [](const Flags& f) {
         EXPECT_EQ(f.String("gpu"), "rtx2080");
         EXPECT_DOUBLE_EQ(f.Double("epsilon"), 0.05);
         EXPECT_EQ(f.Uint("reps"), 10u);
         EXPECT_TRUE(f.Bool("flag"));
         EXPECT_FALSE(f.Has("gpu"));
         EXPECT_EQ(f.Path("manifest"), "");
         EXPECT_EQ(f.Path("cache"), "dir");
         EXPECT_FALSE(f.Help());
         EXPECT_THROW(f.String("undeclared"), std::logic_error);
         EXPECT_THROW(f.Uint("small"), std::bad_optional_access);
       }},
      {"TypedParsingErrors", {"--epsilon", "abc"},
       "Flags: --epsilon expects a number, got 'abc'"},
      {"TypedParsingErrorsUint", {"--seed", "1.5"},
       "Flags: --seed expects an integer in [0, 18446744073709551615], got "
       "'1.5'"},
      {"TypedParsingErrorsBool", {"--flush", "maybe"},
       "Flags: --flush expects true/false, got 'maybe'"},
      // Each refusal names the flag and the accepted range.
      {"GetUintRefusesWhatACastWouldWrap", {"--seed", "-1"},
       "Flags: --seed expects an integer in [0, 18446744073709551615], got "
       "'-1'"},
      {"UintAboveItsBoundIsRefused", {"--small", "4294967296"},
       "Flags: --small expects an integer in [0, 4294967295], got "
       "'4294967296'"},
      {"UintAboveTheTypeIsRefused", {"--seed", "18446744073709551616"},
       "Flags: --seed expects an integer in [0, 18446744073709551615], got "
       "'18446744073709551616'"},
      {"UintBoundIsInclusive",
       {"--seed", "18446744073709551615", "--small", "+3", "--reps", "20"},
       "",
       [](const Flags& f) {
         EXPECT_EQ(f.Uint("seed"), 18446744073709551615u);
         EXPECT_EQ(f.Uint("small"), 3u);  // a leading '+' is accepted
         EXPECT_EQ(f.Uint("reps"), 20u);
       }},
      {"BoolAcceptsCanonicalForms", {"--flag", "0", "--flush", "true"}, "",
       [](const Flags& f) {
         EXPECT_FALSE(f.Bool("flag"));
         EXPECT_TRUE(f.Bool("flush"));
       }},
      {"RequireThrowsWhenAbsent", {"--in", "x"},
       "Flags: missing required --out", nullptr, 0, {kRequiredOut}},
      {"MissingValueRejected", {"--in"}, "Flags: --in needs a value"},
      {"UnknownFlagsDetected", {"--in", "x", "--typo", "y", "--other"},
       "Flags: unknown flag(s): --typo, --other"},
      {"RepeatedFlagIsRefused", {"--seed", "1", "--seed=3"},
       "Flags: --seed given more than once"},
      {"NoneTurnsAPathOff", {"--manifest", "none", "--cache", "none"}, "",
       [](const Flags& f) {
         EXPECT_EQ(f.Path("manifest"), "");
         EXPECT_EQ(f.Path("cache"), "");
         EXPECT_EQ(f.String("cache"), "none");
       }},
      {"HelpSkipsRequiredFlags", {"-h", "--seed", "2"}, "",
       [](const Flags& f) {
         EXPECT_TRUE(f.Help());
         EXPECT_EQ(f.Uint("seed"), 2u);
       },
       0, {kRequiredOut}},
      {"HelpStillParsesTheLine", {"--help", "--bogus", "1"},
       "Flags: unknown flag(s): --bogus"},
      {"StrayPositionalIsRefused", {"stray", "--in", "x"},
       "Flags: unexpected argument 'stray'"},
      {"PositionalAfterFlagsIsRefused", {"--in", "x", "stray"},
       "Flags: expected --flag, got 'stray'"},
      {"ListSplitsOnCommas", {"--list", "a,b,,c"}, "",
       [](const Flags& f) {
         EXPECT_EQ(f.List("list"),
                   (std::vector<std::string>{"a", "b", "", "c"}));
       }},
      {"HelpListsEveryRowWithItsDefault", {}, "",
       [](const Flags&) {
         std::vector<FlagSpec> table = Table();
         table.push_back(kRequiredOut);
         const std::string help = FlagHelp(table);
         for (const FlagSpec& spec : table)
           EXPECT_NE(help.find("  --" + spec.name + " "), std::string::npos)
               << spec.name;
         EXPECT_NE(help.find("  --gpu rtx2080 "), std::string::npos);
         EXPECT_NE(help.find("  --small N "), std::string::npos);
         EXPECT_NE(help.find("  --out STR "), std::string::npos);
         EXPECT_NE(help.find("out (required)"), std::string::npos);
       }},
  };
  return cases;
}

void RunCase(const Case& c) {
  std::vector<FlagSpec> table = Table();
  table.insert(table.end(), c.extra.begin(), c.extra.end());
  try {
    const Flags flags = Flags::Parse(static_cast<int>(c.argv.size()),
                                     c.argv.data(), table, c.max_positional);
    EXPECT_EQ("", c.error) << "parsed a line that must be refused";
    if (c.check) c.check(flags);
  } catch (const FlagError& e) {
    EXPECT_EQ(e.what(), c.error);
  }
}

class FlagsCase : public ::testing::Test {
 public:
  explicit FlagsCase(const Case& c) : case_(c) {}
  void TestBody() override { RunCase(case_); }

 private:
  const Case& case_;
};

// One test per row of the table, each named after its row.
[[maybe_unused]] const bool kRegistered = [] {
  for (const Case& c : Cases())
    ::testing::RegisterTest("FlagsTest", c.name.c_str(), nullptr, nullptr,
                            __FILE__, __LINE__,
                            [&c]() -> ::testing::Test* {
                              return new FlagsCase(c);
                            });
  return true;
}();

}  // namespace
}  // namespace stemroot
