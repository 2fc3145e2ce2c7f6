/// \file
/// Name -> factory registry for samplers, replacing the CLI's if-chain so
/// every front end (CLI, benches, tests, future services) builds samplers
/// the same way and unknown-method errors can list what is available.
///
/// Factories take a SamplerParams bag -- a small string map with typed
/// getters, decoupled from argv parsing so library code can use it too.
/// Each factory declares the keys it reads once, at registration, as flag
/// table rows (common/flags.h): the CLI derives its sampler flags from
/// those declarations and refuses a key the chosen method does not take.
/// The registry is created with "stem" registered; the baseline samplers
/// add themselves via baselines::EnsureBuiltinSamplers() (core cannot
/// depend on baselines).

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/sampler.h"

namespace stemroot::core {

/// Parameter map for sampler factories. Values are stored as strings;
/// typed getters parse with the same strictness as the flag grammar and
/// throw std::invalid_argument on malformed values.
class SamplerParams {
 public:
  SamplerParams() = default;

  SamplerParams& Set(const std::string& key, const std::string& value);
  SamplerParams& Set(const std::string& key, const char* value);
  SamplerParams& Set(const std::string& key, double value);
  SamplerParams& Set(const std::string& key, int64_t value);
  SamplerParams& Set(const std::string& key, bool value);

  double GetDouble(const std::string& key, double fallback) const;
  /// A count or size: throws std::invalid_argument naming the key when
  /// the value is negative, malformed or above `max` (the range of the
  /// field it is narrowed into).
  uint64_t GetUint(const std::string& key, uint64_t fallback,
                   uint64_t max) const;
  bool GetBool(const std::string& key, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Thread-safe name -> sampler factory registry.
class SamplerRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Sampler>(const SamplerParams&)>;

  /// The process-wide registry; pre-registers "stem" on first use.
  static SamplerRegistry& Global();

  SamplerRegistry() = default;
  SamplerRegistry(const SamplerRegistry&) = delete;
  SamplerRegistry& operator=(const SamplerRegistry&) = delete;

  /// Register a factory under a unique lowercase name, with the keys it
  /// reads (`params`, one flag row each); throws std::invalid_argument on
  /// duplicates (register once).
  void Register(const std::string& name, Factory factory,
                std::vector<FlagSpec> params = {});

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  /// Build a sampler. Unknown names throw std::invalid_argument whose
  /// message lists every registered name (the CLI surfaces it verbatim).
  std::unique_ptr<Sampler> Create(const std::string& name,
                                  const SamplerParams& params = {}) const;

  /// The keys `name`'s factory reads, as declared at registration. Unknown
  /// names throw like Create.
  std::vector<FlagSpec> Params(const std::string& name) const;

 private:
  struct Entry {
    Factory factory;
    std::vector<FlagSpec> params;
  };
  /// The entry for `name`; throws the unknown-sampler error.
  const Entry& Find(const std::string& name) const;

  mutable std::mutex mu_;
  std::map<std::string, Entry> factories_;
};

}  // namespace stemroot::core
