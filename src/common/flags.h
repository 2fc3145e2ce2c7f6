/// \file
/// Minimal command-line flag parsing for the CLI tools: positional
/// command words followed by `--key value` pairs, with typed accessors
/// and strict unknown-flag detection.

#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace stemroot {

/// Parsed command line.
class Flags {
 public:
  /// Parse argv (excluding argv[0]). Words before the first `--flag` are
  /// positional; flags require a value (`--k v`). Throws
  /// std::invalid_argument on a flag without a value.
  static Flags Parse(int argc, const char* const* argv);

  const std::vector<std::string>& Positional() const { return positional_; }

  bool Has(const std::string& key) const;

  /// Typed getters with defaults. Throw std::invalid_argument when the
  /// value does not parse.
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  /// A count or size: throws std::invalid_argument naming the flag when
  /// the value is negative or above `max` (the range of the field it is
  /// narrowed into), instead of letting the cast wrap it.
  uint64_t GetUint(const std::string& key, uint64_t fallback,
                   uint64_t max = std::numeric_limits<uint64_t>::max()) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Required string; throws std::invalid_argument when missing.
  std::string Require(const std::string& key) const;

  /// After reading everything, verify no unread flags remain; throws
  /// std::invalid_argument listing them (catches typos).
  void CheckAllRead() const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace stemroot
