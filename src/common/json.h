/// \file
/// Minimal dependency-free JSON support shared by the observability
/// layers: a full-grammar recursive-descent parser (objects, arrays,
/// strings, numbers, bools, null) used by the telemetry/trace validators,
/// and the two writing helpers (escaped strings, shortest-round-trip
/// numbers) every exporter in the tree uses so their byte-level output
/// conventions cannot drift apart.
///
/// The parser exists for *validation* (`stemroot validate`, the journal
/// reader, the audit tests): it keeps \u escapes verbatim
/// instead of decoding them, rejects trailing garbage, and reports a
/// character offset with every error.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace stemroot::json {

struct Value;
using Object = std::vector<std::pair<std::string, Value>>;
using Array = std::vector<Value>;

/// One parsed JSON value. Objects keep their key order (validators check
/// schemas, not maps), and bools are stored in `number` (1.0 / 0.0). A
/// number written as plain digits ("42", not "-1", "2.5" or "1e3") also
/// keeps those digits in `string`, so an integer wider than a double's
/// 53-bit mantissa still reads back exactly (ExactUint64).
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  double number = 0.0;
  std::string string;
  std::shared_ptr<Object> object;
  std::shared_ptr<Array> array;

  /// First member with this key (nullptr when absent or not an object).
  const Value* Find(std::string_view key) const;

  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }
};

/// Parse a complete document. On failure returns false and, when `error`
/// is non-null, stores a one-line reason prefixed with the byte offset.
bool Parse(std::string_view text, Value& out, std::string* error);

/// A number that is a whole value in [0, 2^53], as uint64_t; anything
/// else (not a number, negative, fractional, huge, NaN) has no exact
/// uint64_t and is refused before the cast. Plain digits are read as an
/// integer, so 2^53 + 1 (a double rounds it to 2^53) is refused too.
std::optional<uint64_t> ExactUint(const Value& value);

/// A whole number in [0, 2^64) read without rounding: plain digits are
/// parsed as a uint64_t (refused past 2^64 - 1); any other spelling must
/// pass ExactUint. For values such as seeds that may exceed 2^53.
std::optional<uint64_t> ExactUint64(const Value& value);

/// Append `s` as a quoted JSON string with the mandatory escapes.
void AppendString(std::string& out, std::string_view s);

/// Shortest round-trip decimal form of a double (std::to_chars):
/// byte-stable for identical bits and locale-independent, so
/// deterministic exports stay byte-identical.
std::string Number(double v);

}  // namespace stemroot::json
