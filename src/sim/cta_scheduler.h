/// \file
/// CTA scheduler: distributes a kernel's thread blocks across SMs and
/// decomposes the simulated SM's share into occupancy-limited waves.

#pragma once

#include <cstdint>
#include <vector>

#include "sim/gpu_config.h"
#include "trace/kernel.h"

namespace stemroot::sim {

/// Wave decomposition for the simulated (representative) SM.
struct WavePlan {
  /// Number of warps resident in each successive wave.
  std::vector<uint32_t> wave_warps;
  /// CTAs assigned to the simulated SM in total.
  uint64_t ctas = 0;
  /// Warps per CTA for this launch.
  uint32_t warps_per_cta = 0;
};

/// Round-robin CTA distribution: SM 0 receives ceil-share of the grid;
/// waves are limited by max_warps_per_sm. Throws std::invalid_argument if
/// a single CTA exceeds the SM's warp capacity.
WavePlan PlanWaves(const LaunchConfig& launch, const SimConfig& config);

}  // namespace stemroot::sim
