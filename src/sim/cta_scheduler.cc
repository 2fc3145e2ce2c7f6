#include "sim/cta_scheduler.h"

#include <algorithm>
#include <stdexcept>

namespace stemroot::sim {

WavePlan PlanWaves(const LaunchConfig& launch, const SimConfig& config) {
  config.Validate();
  WavePlan plan;
  plan.warps_per_cta = launch.WarpsPerCta();
  if (plan.warps_per_cta > config.max_warps_per_sm)
    throw std::invalid_argument(
        "PlanWaves: CTA exceeds the SM warp capacity");

  const uint64_t total_ctas = launch.NumCtas();
  // Round-robin distribution: the representative SM gets the ceil share.
  plan.ctas = (total_ctas + config.num_sms - 1) / config.num_sms;

  const uint32_t ctas_per_wave =
      std::max<uint32_t>(1, config.max_warps_per_sm / plan.warps_per_cta);
  uint64_t remaining = plan.ctas;
  while (remaining > 0) {
    const uint32_t wave_ctas = static_cast<uint32_t>(
        std::min<uint64_t>(remaining, ctas_per_wave));
    plan.wave_warps.push_back(wave_ctas * plan.warps_per_cta);
    remaining -= wave_ctas;
  }
  return plan;
}

}  // namespace stemroot::sim
