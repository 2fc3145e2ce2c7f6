#include "common/json.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

namespace stemroot::json {
namespace {

bool Parses(const std::string& text, std::string* error = nullptr) {
  Value v;
  return Parse(text, v, error);
}

TEST(JsonTest, ParsesWellFormedDocuments) {
  Value v;
  ASSERT_TRUE(Parse(R"({"a": [1, 2.5, -3e2], "b": {"c": "x"},
                       "t": true, "f": false, "n": null})",
                    v, nullptr));
  ASSERT_TRUE(v.IsObject());
  const Value* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->IsArray());
  EXPECT_EQ(a->array->size(), 3u);
  EXPECT_DOUBLE_EQ((*a->array)[1].number, 2.5);
  const Value* b = v.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->Find("c"), nullptr);
  EXPECT_EQ(b->Find("c")->string, "x");
}

TEST(JsonTest, RejectsTruncatedDocuments) {
  std::string error;
  // Every prefix of a valid object must fail cleanly, never crash.
  const std::string doc = R"({"key": [1, {"nested": "value"}], "n": 12.5})";
  for (size_t len = 0; len < doc.size(); ++len) {
    EXPECT_FALSE(Parses(doc.substr(0, len), &error))
        << "prefix of length " << len << " unexpectedly parsed";
    EXPECT_FALSE(error.empty());
  }
  EXPECT_TRUE(Parses(doc, &error)) << error;
}

TEST(JsonTest, RejectsBadEscapes) {
  std::string error;
  EXPECT_FALSE(Parses(R"({"k": "\x41"})", &error));
  EXPECT_FALSE(Parses(R"({"k": "\u12"})", &error));    // truncated \u
  EXPECT_FALSE(Parses(R"({"k": "\uZZZZ"})", &error));  // non-hex \u
  EXPECT_FALSE(Parses("{\"k\": \"a\\", &error));       // escape at EOF
  EXPECT_FALSE(Parses("{\"k\": \"a\n\"}", &error));    // raw control char
  EXPECT_TRUE(Parses(R"({"k": "\" \\ \/ \b \f \n \r \t A"})", &error))
      << error;
}

TEST(JsonTest, RejectsNanAndInf) {
  // JSON has no non-finite literals; the number grammar must reject them
  // rather than let them poison downstream comparisons.
  std::string error;
  EXPECT_FALSE(Parses("{\"k\": NaN}", &error));
  EXPECT_FALSE(Parses("{\"k\": nan}", &error));
  EXPECT_FALSE(Parses("{\"k\": Infinity}", &error));
  EXPECT_FALSE(Parses("{\"k\": -Infinity}", &error));
  EXPECT_FALSE(Parses("{\"k\": inf}", &error));
}

TEST(JsonTest, RejectsOutOfRangeNumbers) {
  std::string error;
  EXPECT_FALSE(Parses("{\"k\": 1e999999}", &error));
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, ExactUintReadsDigitsWithoutRounding) {
  const auto parse = [](const std::string& text) {
    Value v;
    EXPECT_TRUE(Parse(text, v, nullptr)) << text;
    return v;
  };
  // [0, 2^53]: 2^53 + 1 rounds to 2^53 as a double, but is refused.
  EXPECT_EQ(ExactUint(parse("9007199254740992")), 9007199254740992ull);
  EXPECT_EQ(ExactUint(parse("9007199254740993")), std::nullopt);
  EXPECT_EQ(ExactUint(parse("1e3")), 1000u);
  EXPECT_EQ(ExactUint(parse("-1")), std::nullopt);
  EXPECT_EQ(ExactUint(parse("2.5")), std::nullopt);
  // [0, 2^64): plain digits parse exactly, other spellings keep the
  // 2^53 rule.
  EXPECT_EQ(ExactUint64(parse("1152921504606846977")),
            1152921504606846977ull);  // 2^60 + 1
  EXPECT_EQ(ExactUint64(parse("18446744073709551615")), ~0ull);
  EXPECT_EQ(ExactUint64(parse("18446744073709551616")), std::nullopt);
  EXPECT_EQ(ExactUint64(parse("1.152921504606846977e18")), std::nullopt);
  EXPECT_EQ(ExactUint64(parse("4.2e1")), 42u);
  EXPECT_EQ(ExactUint64(parse("\"7\"")), std::nullopt);  // a string
}

TEST(JsonTest, DeepNestingFailsGracefully) {
  // A pathological "[[[[..." document must produce a parse error, not a
  // stack overflow (the parser recurses per container level).
  constexpr int kDepth = 100000;
  std::string deep_array(kDepth, '[');
  deep_array.append(kDepth, ']');
  std::string error;
  EXPECT_FALSE(Parses(deep_array, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;

  std::string deep_object;
  for (int i = 0; i < kDepth; ++i) deep_object += "{\"k\":";
  deep_object += "1";
  for (int i = 0; i < kDepth; ++i) deep_object += '}';
  EXPECT_FALSE(Parses(deep_object, &error));

  // Reasonable nesting still parses.
  std::string ok(50, '[');
  ok.append(50, ']');
  EXPECT_TRUE(Parses(ok, &error)) << error;
}

TEST(JsonTest, RejectsTrailingGarbageAndBadLiterals) {
  std::string error;
  EXPECT_FALSE(Parses("{} extra", &error));
  EXPECT_FALSE(Parses("{\"k\": tru}", &error));
  EXPECT_FALSE(Parses("{\"k\": nul}", &error));
  EXPECT_FALSE(Parses("{\"k\" 1}", &error));   // missing colon
  EXPECT_FALSE(Parses("{\"k\": 1,}", &error)); // trailing comma
  EXPECT_FALSE(Parses("[1, 2,]", &error));
  EXPECT_FALSE(Parses("", &error));
}

TEST(JsonTest, StringRoundTripThroughAppendString) {
  std::string out;
  AppendString(out, "a\"b\\c\nd\te\rf\x01g");
  Value v;
  std::string error;
  ASSERT_TRUE(Parse(out, v, &error)) << error;
  ASSERT_TRUE(v.IsString());
}

TEST(JsonWriterTest, CompactLayoutNestsWithoutSpaces) {
  Writer w;
  w.String("s", "a\"b").Number("d", 0.1).Uint("u", 18446744073709551615ull)
      .Bool("b", false).Raw("r", "1.000");
  w.Object("o").Uint("x", 1).Object("empty").End().End();
  w.Array("a", Writer::Wrap::kLines);
  w.Item().Uint("k", 2).End();
  w.Item().End();
  w.End();
  EXPECT_EQ(w.Finish(),
            R"({"s":"a\"b","d":0.1,"u":18446744073709551615,"b":false,)"
            R"("r":1.000,"o":{"x":1,"empty":{}},"a":[{"k":2},{}]})");
}

TEST(JsonWriterTest, PrettyLayoutBreaksOnlyLinesContainers) {
  Writer w(Writer::Layout::kPretty);
  w.Uint("n", 1).Object("inline").Uint("x", 2).End();
  w.Array("rows", Writer::Wrap::kLines);
  w.Item(Writer::Wrap::kLines).Uint("a", 1).Array("none", Writer::Wrap::kLines)
      .End().End();
  w.Item().Uint("b", 2).End();
  EXPECT_EQ(w.Finish(), R"({
  "n": 1,
  "inline": {"x":2},
  "rows": [
    {
      "a": 1,
      "none": []
    },
    {"b":2}
  ]
}
)");
  Writer inline_top(Writer::Layout::kPretty, Writer::Wrap::kInline);
  inline_top.Uint("n", 1).Array("e", Writer::Wrap::kLines).Item().End();
  EXPECT_EQ(inline_top.Finish(), "{\"n\":1,\"e\":[\n  {}\n]}\n");
}

TEST(JsonWriterTest, MembersSplicesAnotherObject) {
  const std::string fields = Writer().String("a", "x").Uint("b", 2).Finish();
  EXPECT_EQ(Writer().Uint("first", 0).Members(fields).Members("{}").Finish(),
            R"({"first":0,"a":"x","b":2})");
  EXPECT_EQ(Writer().Members(fields).Finish(), R"({"a":"x","b":2})");
}

/// The message a read throws, or "" when it does not throw.
template <typename F>
std::string Refusal(F read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(JsonReaderTest, RequiredMembersNameTheContextAndKey) {
  Value doc;
  ASSERT_TRUE(Parse(R"({"s":"x","n":2.5,"b":true,"u":7,)"
                    R"("big":18446744073709551615,"o":{"k":1},"a":[1]})",
                    doc, nullptr));
  const Reader r(doc, "ctx");
  EXPECT_EQ(r.String("s"), "x");
  EXPECT_EQ(r.Number("n"), 2.5);
  EXPECT_TRUE(r.Bool("b"));
  EXPECT_EQ(r.Uint("u"), 7u);
  EXPECT_EQ(r.Uint64("big"), 18446744073709551615ull);
  EXPECT_EQ(r.Object("o").Uint("k"), 1u);
  EXPECT_EQ(r.Array("a").size(), 1u);

  EXPECT_EQ(Refusal([&] { r.String("gone"); }), "ctx: 'gone' is missing");
  EXPECT_EQ(Refusal([&] { r.String("n"); }), "ctx: 'n' must be a string");
  EXPECT_EQ(Refusal([&] { r.Number("s"); }), "ctx: 's' must be a number");
  EXPECT_EQ(Refusal([&] { r.Bool("u"); }), "ctx: 'u' must be a bool");
  EXPECT_EQ(Refusal([&] { r.Object("a"); }), "ctx: 'a' must be an object");
  EXPECT_EQ(Refusal([&] { r.Array("o"); }), "ctx: 'o' must be an array");
  EXPECT_EQ(Refusal([&] { r.Uint("n"); }),
            "ctx: 'n' must be a whole number in [0, 2^53]");
  EXPECT_EQ(Refusal([&] { r.Uint("big"); }),
            "ctx: 'big' must be a whole number in [0, 2^53]");
  EXPECT_EQ(Refusal([&] { r.Uint("u", 6); }), "ctx: 'u' 7 exceeds 6");
  EXPECT_EQ(Refusal([&] { r.Uint64("s"); }),
            "ctx: 's' must be a whole number in [0, 2^64)");
  EXPECT_EQ(Refusal([&] { r.Object("o").Uint("z"); }), "o: 'z' is missing");
  EXPECT_EQ(Refusal([&] { Reader((*doc.Find("a")->array)[0], "row"); }),
            "row must be an object");
}

TEST(JsonReaderTest, OptionalMembersFallBackOnlyWhenAbsent) {
  Value doc;
  ASSERT_TRUE(Parse(R"({"s":"x","n":2,"b":false,"m":{"a":1,"b":2}})", doc,
                    nullptr));
  const Reader r(doc, "ctx");
  EXPECT_EQ(r.StringOr("s", "d"), "x");
  EXPECT_EQ(r.StringOr("gone", "d"), "d");
  EXPECT_EQ(r.NumberOr("gone", 1.5), 1.5);
  EXPECT_EQ(r.FiniteOr("n", 1.5), 2.0);
  EXPECT_FALSE(r.BoolOr("b", true));
  EXPECT_TRUE(r.BoolOr("gone", true));
  EXPECT_EQ(r.UintOr("n", 9), 2u);
  EXPECT_EQ(r.UintOr("gone", 9), 9u);
  EXPECT_EQ(r.Uint64Or("gone", 9), 9u);
  EXPECT_TRUE(r.Has("s"));
  EXPECT_FALSE(r.Has("gone"));
  EXPECT_EQ(r.Object("m").UintMap(),
            (std::map<std::string, uint64_t>{{"a", 1}, {"b", 2}}));
  // Present but wrong: refused, never replaced by the fallback.
  EXPECT_EQ(Refusal([&] { r.StringOr("n", "d"); }),
            "ctx: 'n' must be a string");
  EXPECT_EQ(Refusal([&] { r.UintOr("s", 0); }),
            "ctx: 's' must be a whole number in [0, 2^53]");
  EXPECT_EQ(Refusal([&] { r.UintOr("n", 0, 1); }), "ctx: 'n' 2 exceeds 1");
  EXPECT_EQ(Refusal([&] { r.Object("m").Object("a"); }),
            "m: 'a' must be an object");
}

}  // namespace
}  // namespace stemroot::json
