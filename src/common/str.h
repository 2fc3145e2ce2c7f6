/// \file
/// Small string helpers (formatting, splitting) shared across modules.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace stemroot {

/// printf-style std::string formatting. Note %f/%g/%e go through the C
/// locale's decimal point; machine-readable output (JSON, CSV, cache keys,
/// fingerprints) must use FormatDouble below instead.
std::string Format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Locale-independent full-string parse (std::from_chars, plus an optional
/// leading '+'). std::nullopt on empty input, trailing characters, or
/// out-of-range values -- never affected by the global locale, unlike
/// std::stod/strtod which honor its decimal point.
std::optional<double> ParseDouble(std::string_view s);
std::optional<int64_t> ParseInt(std::string_view s);
std::optional<uint64_t> ParseUint(std::string_view s);  ///< '-' is malformed

/// Locale-independent shortest round-trip formatting (std::to_chars):
/// the shortest decimal string that parses back to exactly `v`.
std::string FormatDouble(double v);

/// Split on a delimiter; empty fields preserved.
std::vector<std::string> Split(std::string_view s, char delim);

/// True if s starts with prefix.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Human-readable quantity with k/M/G suffix (e.g. 11599870 -> "11.6M").
std::string HumanCount(double v);

/// Human-readable duration from microseconds (us/ms/s/min/h/days).
std::string HumanDuration(double microseconds);

}  // namespace stemroot
