/// \file
/// NVBit-like GPU Basic Block Vector collector: Photon's input signature
/// (paper Table 1: "GPU Basic Block Vector (BBV)").
///
/// A BBV counts per-warp executions of each static basic block. We derive
/// it from the kernel type's synthetic CFG (block_weights) scaled by the
/// invocation's dynamic instruction volume and input_scale: contexts with
/// different input sizes produce visibly different BBVs (Photon clusters
/// those correctly), while contexts that differ only in memory locality
/// produce identical BBVs (Photon's documented blind spot, Fig. 10).

#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.h"

namespace stemroot::profiler {

/// Basic block vector of one invocation (per-warp block execution counts).
using Bbv = std::vector<double>;

/// Collect BBVs.
class BbvCollector {
 public:
  /// BBV of a single invocation.
  static Bbv Extract(const KernelTrace& trace, const KernelInvocation& inv);

  /// Manhattan distance between two normalized BBVs, in [0, 2]. Used by
  /// Photon's similarity test. Throws std::invalid_argument on dimension
  /// mismatch.
  static double NormalizedDistance(const Bbv& a, const Bbv& b);
};

}  // namespace stemroot::profiler
