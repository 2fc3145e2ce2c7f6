#include "common/json.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace stemroot::json
