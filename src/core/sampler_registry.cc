#include "core/sampler_registry.h"

#include <limits>
#include <stdexcept>

#include "common/str.h"

namespace stemroot::core {

SamplerParams& SamplerParams::Set(const std::string& key,
                                  const std::string& value) {
  values_[key] = value;
  return *this;
}

SamplerParams& SamplerParams::Set(const std::string& key,
                                  const char* value) {
  values_[key] = value;
  return *this;
}

SamplerParams& SamplerParams::Set(const std::string& key, double value) {
  // Locale-independent shortest round-trip form: the stored string must
  // parse back to exactly `value` regardless of the global locale.
  values_[key] = FormatDouble(value);
  return *this;
}

SamplerParams& SamplerParams::Set(const std::string& key, int64_t value) {
  values_[key] = Format("%lld", static_cast<long long>(value));
  return *this;
}

SamplerParams& SamplerParams::Set(const std::string& key, bool value) {
  values_[key] = value ? "true" : "false";
  return *this;
}

double SamplerParams::GetDouble(const std::string& key,
                                double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  // from_chars-backed parse: std::stod honors the global locale's decimal
  // point and would misread "0.05" under a comma-decimal locale.
  const std::optional<double> value = ParseDouble(it->second);
  if (!value)
    throw std::invalid_argument("SamplerParams: '" + key +
                                "' expects a number, got '" + it->second +
                                "'");
  return *value;
}

uint64_t SamplerParams::GetUint(const std::string& key, uint64_t fallback,
                                uint64_t max) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::optional<uint64_t> value = ParseUint(it->second);
  if (!value || *value > max)
    throw std::invalid_argument("SamplerParams: '" + key +
                                "' expects an integer in [0, " +
                                std::to_string(max) + "], got '" +
                                it->second + "'");
  return *value;
}

bool SamplerParams::GetBool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  throw std::invalid_argument("SamplerParams: '" + key +
                              "' expects true/false, got '" + it->second +
                              "'");
}

SamplerRegistry& SamplerRegistry::Global() {
  static SamplerRegistry* registry = [] {
    auto* reg = new SamplerRegistry;
    reg->Register(
        "stem",
        [](const SamplerParams& params) {
          StemRootConfig config;
          config.root.stem.epsilon =
              params.GetDouble("epsilon", config.root.stem.epsilon);
          config.root.stem.confidence =
              params.GetDouble("confidence", config.root.stem.confidence);
          config.root.stem.min_samples =
              params.GetUint("min_samples", config.root.stem.min_samples,
                             std::numeric_limits<uint64_t>::max());
          config.root.branch_k = static_cast<uint32_t>(
              params.GetUint("branch_k", config.root.branch_k,
                             std::numeric_limits<uint32_t>::max()));
          return std::make_unique<StemRootSampler>(config);
        },
        {{"epsilon", FlagKind::kDouble, "", "relative error bound"},
         {"confidence", FlagKind::kDouble, "", "confidence of the bound"},
         {"min_samples", FlagKind::kUint, "", "samples per cluster floor"},
         {"branch_k", FlagKind::kUint, "", "ROOT's k-means branching factor",
          std::numeric_limits<uint32_t>::max()}});
    return reg;
  }();
  return *registry;
}

void SamplerRegistry::Register(const std::string& name, Factory factory,
                               std::vector<FlagSpec> params) {
  if (name.empty() || !factory)
    throw std::invalid_argument(
        "SamplerRegistry: name and factory must be non-empty");
  std::lock_guard<std::mutex> lock(mu_);
  if (!factories_.emplace(name, Entry{std::move(factory), std::move(params)})
           .second)
    throw std::invalid_argument("SamplerRegistry: '" + name +
                                "' is already registered");
}

std::vector<std::string> SamplerRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, entry] : factories_) names.push_back(name);
  return names;  // std::map iteration order is already sorted
}

const SamplerRegistry::Entry& SamplerRegistry::Find(
    const std::string& name) const {
  // Entries are never removed and std::map nodes are stable, so the entry
  // can be used through a reference after dropping the lock -- no
  // std::function copy per Create, and no lock held during the (arbitrary
  // user code) factory call.
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = factories_.find(name);
    if (it != factories_.end()) return it->second;
  }
  std::string known;
  for (const std::string& n : Names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::invalid_argument("unknown sampler '" + name +
                              "' (registered: " + known + ")");
}

std::unique_ptr<Sampler> SamplerRegistry::Create(
    const std::string& name, const SamplerParams& params) const {
  return Find(name).factory(params);
}

std::vector<FlagSpec> SamplerRegistry::Params(const std::string& name) const {
  return Find(name).params;
}

}  // namespace stemroot::core
