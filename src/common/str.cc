#include "common/str.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <system_error>

#include "common/log.h"

namespace stemroot {

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string out = VFormat(fmt, args);
  va_end(args);
  return out;
}

namespace {

template <typename T>
std::optional<T> ParseFullString(std::string_view s) {
  // from_chars rejects a leading '+' that strtol/strtod accepted; keep
  // accepting it so "+1.5" flag values stay valid.
  if (!s.empty() && s.front() == '+') s.remove_prefix(1);
  if (s.empty()) return std::nullopt;
  T value{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

}  // namespace

std::optional<double> ParseDouble(std::string_view s) {
  return ParseFullString<double>(s);
}

std::optional<int64_t> ParseInt(std::string_view s) {
  return ParseFullString<int64_t>(s);
}

std::optional<uint64_t> ParseUint(std::string_view s) {
  return ParseFullString<uint64_t>(s);
}

std::string FormatDouble(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, ec == std::errc() ? ptr : buf);
}

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(s.substr(start));
      break;
    }
    parts.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string HumanCount(double v) {
  const char* suffix = "";
  if (v >= 1e9) {
    v /= 1e9;
    suffix = "G";
  } else if (v >= 1e6) {
    v /= 1e6;
    suffix = "M";
  } else if (v >= 1e3) {
    v /= 1e3;
    suffix = "k";
  }
  return Format("%.1f%s", v, suffix);
}

std::string HumanDuration(double microseconds) {
  double v = microseconds;
  if (v < 1e3) return Format("%.1fus", v);
  v /= 1e3;
  if (v < 1e3) return Format("%.1fms", v);
  v /= 1e3;
  if (v < 60) return Format("%.2fs", v);
  v /= 60;
  if (v < 60) return Format("%.1fmin", v);
  v /= 60;
  if (v < 48) return Format("%.1fh", v);
  return Format("%.1fdays", v / 24);
}

}  // namespace stemroot
