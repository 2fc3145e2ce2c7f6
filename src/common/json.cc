#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <system_error>

#include "common/str.h"

namespace stemroot::json {

const Value* Value::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : *object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(Value& out, std::string* error) {
    try {
      out = ParseValue();
      SkipWs();
      if (pos_ != text_.size()) Fail("trailing characters after document");
      return true;
    } catch (const std::exception& e) {
      if (error != nullptr)
        *error = Format("offset %zu: %s", pos_, e.what());
      return false;
    }
  }

 private:
  /// Recursion cap: ParseValue recurses once per container level, so a
  /// hostile "[[[[..." document would otherwise overflow the stack. 200
  /// levels is far beyond any manifest/telemetry payload.
  static constexpr int kMaxDepth = 200;

  [[noreturn]] void Fail(const std::string& why) {
    throw std::runtime_error(why);
  }

  struct DepthGuard {
    explicit DepthGuard(Parser& p) : parser(p) {
      if (++parser.depth_ > kMaxDepth)
        throw std::runtime_error("nesting too deep");
    }
    ~DepthGuard() { --parser.depth_; }
    Parser& parser;
  };

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(Format("expected '%c', got '%c'", c, Peek()));
    ++pos_;
  }

  Value ParseValue() {
    SkipWs();
    switch (Peek()) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        Value v;
        v.kind = Value::Kind::kString;
        v.string = ParseString();
        return v;
      }
      case 't':
      case 'f': return ParseLiteralBool();
      case 'n': {
        ParseLiteral("null");
        return Value{};
      }
      default: return ParseNumber();
    }
  }

  void ParseLiteral(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      Fail("bad literal (expected " + std::string(word) + ")");
    pos_ += word.size();
  }

  Value ParseLiteralBool() {
    Value v;
    v.kind = Value::Kind::kBool;
    if (Peek() == 't') {
      ParseLiteral("true");
      v.number = 1.0;
    } else {
      ParseLiteral("false");
    }
    return v;
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        Fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
          for (int i = 0; i < 4; ++i)
            if (std::isxdigit(static_cast<unsigned char>(text_[pos_ + i])) ==
                0)
              Fail("bad \\u escape");
          // Validation only: keep the escape verbatim.
          out += "\\u";
          out.append(text_.substr(pos_, 4));
          pos_ += 4;
          break;
        }
        default: Fail("bad escape character");
      }
    }
  }

  Value ParseNumber() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    auto digits = [&] {
      size_t n = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) Fail("bad number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) Fail("bad fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (digits() == 0) Fail("bad exponent");
    }
    Value v;
    v.kind = Value::Kind::kNumber;
    // from_chars, not std::stod: stod honors the global locale's decimal
    // point, so a comma-decimal locale would silently truncate "1.5" to 1.
    // The span was validated against the JSON grammar above, which is a
    // subset of what from_chars accepts.
    const std::string_view span = text_.substr(start, pos_ - start);
    const auto [ptr, ec] =
        std::from_chars(span.data(), span.data() + span.size(), v.number);
    if (ec == std::errc::result_out_of_range) Fail("number out of range");
    if (ec != std::errc() || ptr != span.data() + span.size())
      Fail("bad number");
    if (span.find_first_not_of("0123456789") == std::string_view::npos)
      v.string.assign(span);
    return v;
  }

  Value ParseObject() {
    DepthGuard guard(*this);
    Expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    v.object = std::make_shared<Object>();
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      SkipWs();
      std::string key = ParseString();
      SkipWs();
      Expect(':');
      v.object->emplace_back(std::move(key), ParseValue());
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return v;
    }
  }

  Value ParseArray() {
    DepthGuard guard(*this);
    Expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    v.array = std::make_shared<Array>();
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array->push_back(ParseValue());
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return v;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool Parse(std::string_view text, Value& out, std::string* error) {
  return Parser(text).Parse(out, error);
}

namespace {

/// A number spelled in plain digits keeps them in `string` (Parse);
/// nothing else does.
bool HasDigits(const Value& value) {
  return value.IsNumber() && !value.string.empty();
}

/// The exact value of those digits; nullopt past 2^64 - 1.
std::optional<uint64_t> DigitsValue(const std::string& digits) {
  uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), out);
  if (ec != std::errc() || ptr != digits.data() + digits.size())
    return std::nullopt;
  return out;
}

}  // namespace

std::optional<uint64_t> ExactUint(const Value& value) {
  constexpr uint64_t kMaxExact = 1ull << 53;
  if (HasDigits(value)) {
    const std::optional<uint64_t> digits = DigitsValue(value.string);
    if (!digits || *digits > kMaxExact) return std::nullopt;
    return digits;
  }
  if (!value.IsNumber() || !(value.number >= 0.0) ||
      value.number > static_cast<double>(kMaxExact) ||
      value.number != std::floor(value.number))
    return std::nullopt;
  return static_cast<uint64_t>(value.number);
}

std::optional<uint64_t> ExactUint64(const Value& value) {
  return HasDigits(value) ? DigitsValue(value.string) : ExactUint(value);
}

void AppendString(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += Format("\\u%04x", c);
        else
          out += c;
    }
  }
  out += '"';
}

// FormatDouble (std::to_chars), not "%.17g": snprintf's %g goes through
// the C locale's decimal point, and the shortest round-trip form also
// keeps manifests, fingerprints, and cache keys free of %.17g's trailing
// digit noise ("0.1" instead of "0.10000000000000001").
std::string Number(double v) { return FormatDouble(v); }

}  // namespace stemroot::json
