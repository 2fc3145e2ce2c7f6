#include "common/flags.h"

#include <stdexcept>

#include "common/str.h"

namespace stemroot {

Flags Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  int i = 0;
  while (i < argc && !StartsWith(argv[i], "--"))
    flags.positional_.emplace_back(argv[i++]);
  while (i < argc) {
    std::string key = argv[i];
    if (!StartsWith(key, "--"))
      throw std::invalid_argument("Flags: expected --flag, got '" + key +
                                  "'");
    key = key.substr(2);
    // Support --key=value and --key value.
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      flags.values_[key.substr(0, eq)] = key.substr(eq + 1);
      ++i;
      continue;
    }
    if (i + 1 >= argc)
      throw std::invalid_argument("Flags: --" + key + " needs a value");
    flags.values_[key] = argv[i + 1];
    i += 2;
  }
  return flags;
}

bool Flags::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Flags::GetDouble(const std::string& key, double fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  // ParseDouble (from_chars) rather than std::stod: stod reads the global
  // locale's decimal point, so "--scale 1.5" would parse as 1 under a
  // comma-decimal locale.
  const std::optional<double> value = ParseDouble(it->second);
  if (!value)
    throw std::invalid_argument("Flags: --" + key + " expects a number, got '" +
                                it->second + "'");
  return *value;
}

int64_t Flags::GetInt(const std::string& key, int64_t fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::optional<int64_t> value = ParseInt(it->second);
  if (!value)
    throw std::invalid_argument("Flags: --" + key +
                                " expects an integer, got '" + it->second +
                                "'");
  return *value;
}

uint64_t Flags::GetUint(const std::string& key, uint64_t fallback,
                        uint64_t max) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::optional<uint64_t> value = ParseUint(it->second);
  if (!value || *value > max)
    throw std::invalid_argument("Flags: --" + key +
                                " expects an integer in [0, " +
                                std::to_string(max) + "], got '" +
                                it->second + "'");
  return *value;
}

bool Flags::GetBool(const std::string& key, bool fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  throw std::invalid_argument("Flags: --" + key +
                              " expects true/false, got '" + it->second +
                              "'");
}

std::string Flags::Require(const std::string& key) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end())
    throw std::invalid_argument("Flags: missing required --" + key);
  return it->second;
}

void Flags::CheckAllRead() const {
  std::string unknown;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) {
      if (!unknown.empty()) unknown += ", ";
      unknown += "--" + key;
    }
  }
  if (!unknown.empty())
    throw std::invalid_argument("Flags: unknown flag(s): " + unknown);
}

}  // namespace stemroot
