#include "baselines/registry.h"

#include <limits>
#include <mutex>

#include "baselines/photon.h"
#include "baselines/pka.h"
#include "baselines/random_sampler.h"
#include "baselines/sieve.h"
#include "core/sampler_registry.h"

namespace stemroot::baselines {

namespace {

constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
constexpr uint64_t kMaxSize = std::numeric_limits<size_t>::max();
constexpr FlagKind kUint = FlagKind::kUint;
constexpr FlagKind kDouble = FlagKind::kDouble;
constexpr FlagKind kBool = FlagKind::kBool;

/// Declared by both pka and sieve.
const FlagSpec kRandomRepresentative = {
    "random_representative", kBool, "",
    "a random member represents each cluster, not the first"};

}  // namespace

void EnsureBuiltinSamplers() {
  static std::once_flag once;
  std::call_once(once, [] {
    core::SamplerRegistry& registry = core::SamplerRegistry::Global();

    registry.Register(
        "random",
        [](const core::SamplerParams& params) {
          return std::make_unique<RandomSampler>(
              params.GetDouble("probability", 0.001));
        },
        {{"probability", kDouble, "", "per-invocation sample rate"}});

    registry.Register(
        "pka",
        [](const core::SamplerParams& params) {
          PkaConfig config;
          config.max_k = static_cast<uint32_t>(
              params.GetUint("max_k", config.max_k, kMaxU32));
          config.elbow_threshold =
              params.GetDouble("elbow_threshold", config.elbow_threshold);
          config.random_representative = params.GetBool(
              "random_representative", config.random_representative);
          return std::make_unique<PkaSampler>(config);
        },
        {{"max_k", kUint, "", "largest k tried", kMaxU32},
         {"elbow_threshold", kDouble, "", "elbow cut-off"},
         kRandomRepresentative});

    registry.Register(
        "sieve",
        [](const core::SamplerParams& params) {
          SieveConfig config;
          config.stable_cov =
              params.GetDouble("stable_cov", config.stable_cov);
          config.variable_cov =
              params.GetDouble("variable_cov", config.variable_cov);
          config.use_kde = params.GetBool("use_kde", config.use_kde);
          config.kde_bins =
              params.GetUint("kde_bins", config.kde_bins, kMaxSize);
          config.random_representative = params.GetBool(
              "random_representative", config.random_representative);
          return std::make_unique<SieveSampler>(config);
        },
        {{"stable_cov", kDouble, "", "CoV below which a kernel is stable"},
         {"variable_cov", kDouble, "", "CoV above which it is variable"},
         {"use_kde", kBool, "", "KDE clustering of variable kernels"},
         {"kde_bins", kUint, "", "KDE grid size", kMaxSize},
         kRandomRepresentative});

    registry.Register(
        "photon",
        [](const core::SamplerParams& params) {
          PhotonConfig config;
          config.similarity_threshold = params.GetDouble(
              "similarity_threshold", config.similarity_threshold);
          config.warp_tolerance =
              params.GetDouble("warp_tolerance", config.warp_tolerance);
          return std::make_unique<PhotonSampler>(config);
        },
        {{"similarity_threshold", kDouble, "", "BBV similarity cut-off"},
         {"warp_tolerance", kDouble, "", "warp-count tolerance"}});
  });
}

}  // namespace stemroot::baselines
