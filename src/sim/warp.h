/// \file
/// Warp execution context: a WarpProgram plus its scheduling state inside
/// an SM.

#pragma once

#include <memory>

#include "sim/itrace.h"

namespace stemroot::sim {

/// One resident warp.
struct WarpContext {
  std::unique_ptr<WarpProgram> program;
  /// Cycle at which this warp may issue its next instruction.
  double ready = 0.0;
  /// Cycle at which the previous instruction's result is available
  /// (dependent instructions must wait for this instead).
  double result_ready = 0.0;

  WarpContext(const KernelBehavior& behavior, const LaunchConfig& launch,
              const SimConfig& config, uint64_t stream_seed,
              uint64_t region_base, uint32_t global_warp_id)
      : program(std::make_unique<WarpProgram>(behavior, launch, config,
                                              stream_seed, region_base,
                                              global_warp_id)) {}
};

}  // namespace stemroot::sim
