/// \file
/// Synthetic warp instruction-trace generation.
///
/// The cycle simulator is trace-driven; since the workloads are generative
/// (no real binaries), each warp's instruction stream is synthesized
/// deterministically from the invocation's KernelBehavior: the mix follows
/// the behaviour fractions, global addresses follow a hot-set/streaming
/// model parameterized by locality, and coalescing controls how many
/// distinct cache lines one warp access touches. The same seed always
/// yields the same stream, so full and sampled simulations see identical
/// kernels.

#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/gpu_config.h"
#include "trace/kernel.h"

namespace stemroot::sim {

/// Warp instruction categories.
enum class OpKind : uint8_t {
  kAlu,
  kFp32,
  kFp16,
  kSfu,
  kSharedMem,
  kLoad,
  kStore,
  kBranch,
};

/// One warp-level instruction.
struct WarpInstr {
  OpKind kind = OpKind::kAlu;
  /// True when this instruction consumes the previous one's result
  /// (issue must wait for its latency). Probability 1/ilp.
  bool depends_on_prev = false;
  /// For kLoad/kStore: the distinct line addresses this warp access
  /// touches after coalescing.
  std::vector<uint64_t> lines;
};

/// Generates the instruction stream of one warp.
class WarpProgram {
 public:
  /// `global_warp_id` individualizes the stream (and its address
  /// partition); `stream_seed` ties all warps of one invocation together;
  /// `region_base` is the kernel's data region -- invocations of the same
  /// kernel share it, so repeated kernels reuse L2 content across launches
  /// (the inter-kernel reuse of the paper's Sec. 6.2).
  WarpProgram(const KernelBehavior& behavior, const LaunchConfig& launch,
              const SimConfig& config, uint64_t stream_seed,
              uint64_t region_base, uint32_t global_warp_id);

  /// Produce the next instruction; false when the warp is done. The
  /// WarpInstr is overwritten (lines vector reused to avoid allocation).
  bool Next(WarpInstr& out);

  uint64_t InstructionsRemaining() const { return remaining_; }
  uint64_t InstructionsTotal() const { return total_; }

 private:
  uint64_t NextAddress();

  const KernelBehavior& behavior_;
  const SimConfig& config_;
  Rng rng_;
  uint64_t total_ = 0;
  uint64_t remaining_ = 0;
  uint64_t region_base_ = 0;     ///< address-space base of this kernel
  uint64_t footprint_lines_ = 0; ///< footprint in cache lines
  uint64_t stream_pos_ = 0;      ///< streaming cursor (line units)
  double dep_prob_ = 0.0;
  uint32_t avg_transactions_ = 1;
  /// Recent-reuse ring of `hot_entries_` slots, built lazily: the vector
  /// holds only the written prefix (the cursor writes slots 0, 1, 2, ...
  /// in order), and an unwritten slot i reads as its initial spread line
  /// `region_base_ + (i * 31 % footprint_lines_) * line_bytes`.
  std::vector<uint64_t> hot_lines_;
  size_t hot_entries_ = 0;
  size_t hot_cursor_ = 0;
};

}  // namespace stemroot::sim
