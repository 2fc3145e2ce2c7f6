/// \file
/// Minimal dependency-free JSON support, the one module that decides how
/// the tree writes and reads JSON:
///
/// - a full-grammar recursive-descent parser (objects, arrays, strings,
///   numbers, bools, null);
/// - Writer, through which every artifact and reply is written (run
///   manifests and ledger lines, protocol replies, journal lines, the
///   audit export, the Chrome trace), so integers, nesting and layout
///   cannot drift apart between exporters;
/// - Reader, the typed member reads every decoder uses (manifests, the
///   protocol, the audit export, the stats client), so an absent,
///   mistyped or out-of-range member is refused the same way everywhere.
///
/// The parser exists for *validation* and decoding: it keeps \u escapes
/// verbatim instead of decoding them, rejects trailing garbage, and
/// reports a character offset with every error.

#pragma once

#include <cstdint>
#include <map>
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

/// The largest whole number ExactUint accepts, 2^53.
inline constexpr uint64_t kMaxExactUint = 1ull << 53;

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

/// One JSON document, a top-level object written member by member.
/// Members go into the innermost open object; Item() opens an object
/// element of the innermost open array; End() closes the innermost open
/// container. Strings are escaped with AppendString, doubles spelled by
/// Number and integers by Uint's exact decimal digits.
///
/// Layouts: kCompact puts everything on one line with no spaces. kPretty
/// puts each member or element of a kLines container (the top-level
/// object is one unless `wrap` says otherwise) on its own line, indented
/// two spaces per open kLines container, with ": " after its key, and
/// ends the document with a newline. kInline containers stay compact
/// inside, and an empty kLines container stays "[]" or "{}".
class Writer {
 public:
  enum class Layout { kCompact, kPretty };
  enum class Wrap { kInline, kLines };

  explicit Writer(Layout layout = Layout::kCompact,
                  Wrap wrap = Wrap::kLines);

  Writer& String(std::string_view key, std::string_view value);
  Writer& Number(std::string_view key, double value);
  Writer& Uint(std::string_view key, uint64_t value);
  Writer& Bool(std::string_view key, bool value);
  /// `value` verbatim, for a spelling no other member gives.
  Writer& Raw(std::string_view key, std::string_view value);
  /// Every member of `object`, a compact object another Writer finished.
  Writer& Members(std::string_view object);

  Writer& Object(std::string_view key, Wrap wrap = Wrap::kInline);
  Writer& Array(std::string_view key, Wrap wrap = Wrap::kInline);
  Writer& Item(Wrap wrap = Wrap::kInline);
  Writer& End();

  /// Close every open container and return the document.
  std::string Finish();

 private:
  struct Frame {
    char close;
    bool lines;
    bool empty = true;
  };

  void Next();
  void Key(std::string_view key);
  void Open(char open, char close, Wrap wrap);
  void NewLine();

  bool pretty_;
  std::string out_;
  std::vector<Frame> open_;
  int lines_depth_ = 0;
};

/// Typed reads of one object's members, the one place that decides how
/// an absent, mistyped or out-of-range member is refused. Every refusal
/// throws std::invalid_argument with the caller-named context and the
/// key: "<context>: '<key>' must be a string". The object must outlive
/// the reader.
class Reader {
 public:
  /// Throws "<context> must be an object" when `value` is not one.
  Reader(const Value& value, std::string context);

  const json::Object& Members() const { return *value_.object; }
  bool Has(std::string_view key) const;

  // Required members: an absent one throws "'<key>' is missing".
  const std::string& String(std::string_view key) const;
  double Number(std::string_view key) const;
  bool Bool(std::string_view key) const;
  /// A whole number in [0, 2^53] (ExactUint) that is also <= `max`.
  uint64_t Uint(std::string_view key, uint64_t max = kMaxExactUint) const;
  /// A whole number in [0, 2^64) (ExactUint64), for seeds.
  uint64_t Uint64(std::string_view key) const;
  /// The member as a reader whose context is `key`.
  Reader Object(std::string_view key) const;
  const json::Array& Array(std::string_view key) const;

  // Optional members: `fallback` when absent, read as above when present.
  std::string StringOr(std::string_view key, std::string_view fallback) const;
  double NumberOr(std::string_view key, double fallback) const;
  /// NumberOr that also refuses NaN and +-inf.
  double FiniteOr(std::string_view key, double fallback) const;
  bool BoolOr(std::string_view key, bool fallback) const;
  uint64_t UintOr(std::string_view key, uint64_t fallback,
                  uint64_t max = kMaxExactUint) const;
  uint64_t Uint64Or(std::string_view key, uint64_t fallback) const;

  /// Every member read as a Uint64, by key (counter and byte tables).
  std::map<std::string, uint64_t> UintMap() const;

 private:
  [[noreturn]] void Refuse(std::string_view key, std::string_view why) const;
  const Value& Need(std::string_view key) const;
  /// The member when present and of `kind`; nullptr when absent.
  const Value* Typed(std::string_view key, Value::Kind kind,
                     std::string_view what) const;
  uint64_t ReadUint(std::string_view key, const Value& v, uint64_t max) const;
  uint64_t ReadUint64(std::string_view key, const Value& v) const;

  const Value& value_;
  std::string context_;
};

}  // namespace stemroot::json
