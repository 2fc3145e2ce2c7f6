#include "common/flags.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace stemroot {
namespace {

Flags Make(std::vector<const char*> args) {
  return Flags::Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagsTest, PositionalThenFlags) {
  const Flags flags = Make({"sample", "--in", "t.bin", "--epsilon", "0.1"});
  ASSERT_EQ(flags.Positional().size(), 1u);
  EXPECT_EQ(flags.Positional()[0], "sample");
  EXPECT_EQ(flags.Require("in"), "t.bin");
  EXPECT_DOUBLE_EQ(flags.GetDouble("epsilon", 0.05), 0.1);
}

TEST(FlagsTest, EqualsSyntax) {
  const Flags flags = Make({"--seed=42", "--name=x"});
  EXPECT_EQ(flags.GetInt("seed", 0), 42);
  EXPECT_EQ(flags.GetString("name", ""), "x");
}

TEST(FlagsTest, DefaultsApplyWhenMissing) {
  const Flags flags = Make({});
  EXPECT_EQ(flags.GetString("gpu", "rtx2080"), "rtx2080");
  EXPECT_DOUBLE_EQ(flags.GetDouble("epsilon", 0.05), 0.05);
  EXPECT_EQ(flags.GetInt("reps", 10), 10);
  EXPECT_TRUE(flags.GetBool("flag", true));
  EXPECT_FALSE(flags.Has("gpu"));
}

TEST(FlagsTest, TypedParsingErrors) {
  const Flags flags = Make({"--epsilon", "abc", "--reps", "1.5",
                            "--flush", "maybe"});
  EXPECT_THROW(flags.GetDouble("epsilon", 0.0), std::invalid_argument);
  EXPECT_THROW(flags.GetInt("reps", 0), std::invalid_argument);
  EXPECT_THROW(flags.GetBool("flush", false), std::invalid_argument);
}

/// The message of the std::invalid_argument `get` throws ("" if none).
template <typename Get>
std::string Refusal(Get get) {
  try {
    get();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(FlagsTest, GetUintRefusesWhatACastWouldWrap) {
  const Flags flags =
      Make({"--reps", "7", "--plus", "+3", "--neg", "-1", "--big",
            "4294967296", "--huge", "18446744073709551616", "--text", "abc",
            "--max", "18446744073709551615"});
  EXPECT_EQ(flags.GetUint("reps", 0, 10), 7u);
  EXPECT_EQ(flags.GetUint("plus", 0), 3u);  // a leading '+', as GetInt
  EXPECT_EQ(flags.GetUint("absent", 5, 1), 5u);  // the fallback is trusted
  EXPECT_EQ(flags.GetUint("max", 0), 18446744073709551615u);
  EXPECT_EQ(flags.GetUint("big", 0), 4294967296u);  // fits without a max

  // Each refusal names the flag and the accepted range.
  EXPECT_EQ(Refusal([&] { flags.GetUint("neg", 0); }),
            "Flags: --neg expects an integer in [0, 18446744073709551615], "
            "got '-1'");
  EXPECT_EQ(Refusal([&] { flags.GetUint("big", 0, 4294967295u); }),
            "Flags: --big expects an integer in [0, 4294967295], got "
            "'4294967296'");
  EXPECT_NE(Refusal([&] { flags.GetUint("huge", 0); }), "");
  EXPECT_NE(Refusal([&] { flags.GetUint("text", 0); }), "");
  EXPECT_NE(Refusal([&] { flags.GetUint("reps", 0, 6); }), "");

  // A refused flag still counts as read: the error is the range, not an
  // unknown flag.
  EXPECT_NO_THROW(flags.CheckAllRead());
}

TEST(FlagsTest, BoolAcceptsCanonicalForms) {
  const Flags flags = Make({"--a", "true", "--b", "0"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
}

TEST(FlagsTest, RequireThrowsWhenAbsent) {
  const Flags flags = Make({});
  EXPECT_THROW(flags.Require("in"), std::invalid_argument);
}

TEST(FlagsTest, MissingValueRejected) {
  EXPECT_THROW(Make({"--in"}), std::invalid_argument);
}

TEST(FlagsTest, UnknownFlagsDetected) {
  const Flags flags = Make({"--in", "x", "--typo", "y"});
  (void)flags.Require("in");
  EXPECT_THROW(flags.CheckAllRead(), std::invalid_argument);
  const Flags clean = Make({"--in", "x"});
  (void)clean.Require("in");
  EXPECT_NO_THROW(clean.CheckAllRead());
}

}  // namespace
}  // namespace stemroot
