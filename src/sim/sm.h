/// \file
/// Streaming multiprocessor timing model.
///
/// Event-driven at warp-instruction granularity: warps issue in order of
/// readiness, which is a fixed round-robin ring (DESIGN.md §12); each
/// issue consumes 1/issue_width cycles of the shared issue pipeline;
/// compute latencies stall only dependent instructions; memory
/// instructions walk L1 -> L2 slice -> DRAM share with the serialized-bus
/// DRAM model. This captures the latency-hiding behaviour that makes GPU
/// kernels compute- or memory-bound without a per-cycle loop (cost is
/// O(warp instructions)).

#pragma once

#include <cstdint>
#include <vector>

#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/gpu_config.h"
#include "sim/warp.h"

namespace stemroot::sim {

/// Execution statistics of one wave/kernel on the simulated SM.
struct SmStats {
  uint64_t warp_instructions = 0;
  uint64_t l1_hits = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_hits = 0;
  uint64_t l2_misses = 0;
  uint64_t dram_bytes = 0;

  void Merge(const SmStats& other);
};

/// Peer-SM L2 modelling: the simulated SM is one of num_sms symmetric
/// SMs all streaming the same kernel's data region. Timing is charged
/// only for the simulated SM, but the shared L2's *content* evolves at
/// machine rate: whenever the simulated SM misses in L2, the peers are
/// statistically missing sibling lines of the same region, so `peers`
/// strided lines are inserted alongside. This both warms the L2 (a
/// kernel's footprint becomes resident after one launch, as on real
/// hardware) and pollutes it (streaming kernels evict num_sms times
/// faster).
struct PeerWarming {
  uint64_t region_base = 0;
  uint64_t footprint_lines = 1;
  uint32_t peers = 0;  ///< 0 disables peer insertion
};

/// One SM with a private L1, executing waves of warps against a shared L2
/// slice and DRAM share owned by the caller.
class SmModel {
 public:
  /// l2 and dram must outlive the SmModel.
  SmModel(const SimConfig& config, Cache* l2, DramModel* dram);

  /// Run all warps to completion starting at `start_cycle`; returns the
  /// cycle at which the last warp finishes. Stats accumulate into *stats.
  /// Every warp must have an instruction left. Throws std::logic_error
  /// if the issue order could no longer equal a min-heap on `ready` (the
  /// issue times stop increasing, e.g. at cycles past 2^53).
  double ExecuteWave(std::vector<WarpContext>& warps, double start_cycle,
                     const PeerWarming& peer_warming, SmStats* stats);

  /// Invalidate the private L1 (fresh per kernel).
  void ResetL1();

  /// Content digest of the private L1 (see Cache::ContentDigest).
  uint64_t L1Digest() const { return l1_.ContentDigest(); }

  /// Logical footprint of the private L1 (see Cache::ApproxBytes).
  uint64_t L1ApproxBytes() const { return l1_.ApproxBytes(); }

 private:
  const SimConfig& config_;
  Cache l1_;
  Cache* l2_;
  DramModel* dram_;
};

}  // namespace stemroot::sim
