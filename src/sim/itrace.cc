#include "sim/itrace.h"

#include <algorithm>
#include <cmath>

namespace stemroot::sim {

WarpProgram::WarpProgram(const KernelBehavior& behavior,
                         const LaunchConfig& launch, const SimConfig& config,
                         uint64_t stream_seed, uint64_t region_base,
                         uint32_t global_warp_id)
    : behavior_(behavior), config_(config),
      rng_(DeriveSeed(stream_seed, global_warp_id)) {
  const uint64_t threads = std::max<uint64_t>(1, launch.TotalThreads());
  // Thread-level instructions per thread == warp instructions per warp
  // (all lanes execute together).
  total_ = std::max<uint64_t>(1, behavior.instructions / threads);
  remaining_ = total_;

  region_base_ = region_base;
  footprint_lines_ = std::max<uint64_t>(
      1, behavior.footprint_bytes / config.line_bytes);
  // Each warp streams through its own partition interleaved with others.
  stream_pos_ = (static_cast<uint64_t>(global_warp_id) * 977) %
                footprint_lines_;
  dep_prob_ = 1.0 / std::max(1.0f, behavior.ilp);
  // Distinct lines per warp access: geometric in (1 - coalescing), as in
  // the analytic model (1 when fully coalesced, warp_size when scattered).
  avg_transactions_ = static_cast<uint32_t>(std::clamp<double>(
      std::llround(std::pow(static_cast<double>(config.warp_size),
                            1.0 - behavior.coalescing)),
      1, config.warp_size));
  // Hot set sized like the analytic model's reuse distance: a geometric
  // blend between a tight 16 KB tile (locality 1) and the full footprint
  // (locality 0). Mid-locality kernels thus reuse at distances that
  // overflow L1 but can live in L2 -- which is what makes cache-size DSE
  // variants move hit rates.
  constexpr double kTileBytes = 16.0 * 1024.0;
  const double footprint = std::max(
      kTileBytes, static_cast<double>(behavior.footprint_bytes));
  const double loc = static_cast<double>(behavior.locality);
  const double reuse_bytes = std::exp(
      (1.0 - loc) * std::log(footprint) + loc * std::log(kTileBytes));
  hot_entries_ = std::max<size_t>(
      8, static_cast<size_t>(reuse_bytes / config.line_bytes));
}

uint64_t WarpProgram::NextAddress() {
  const bool reuse = rng_.NextBool(behavior_.locality);
  if (reuse) {
    // Revisit a recently touched line. A slot the cursor has not reached
    // yet still holds its initial spread line, so early "reuse" draws do
    // not all alias the base line.
    const size_t i = rng_.NextBounded(hot_entries_);
    if (i < hot_lines_.size()) return hot_lines_[i];
    return region_base_ + (i * 31 % footprint_lines_) * config_.line_bytes;
  }
  // Fresh line: advance the streaming cursor (strided, wraps around the
  // footprint).
  if (++stream_pos_ == footprint_lines_) stream_pos_ = 0;
  const uint64_t addr =
      region_base_ + stream_pos_ * config_.line_bytes;
  if (hot_cursor_ < hot_lines_.size())
    hot_lines_[hot_cursor_] = addr;
  else
    hot_lines_.push_back(addr);
  if (++hot_cursor_ == hot_entries_) hot_cursor_ = 0;
  return addr;
}

bool WarpProgram::Next(WarpInstr& out) {
  if (remaining_ == 0) return false;
  --remaining_;

  out.depends_on_prev = rng_.NextBool(dep_prob_);
  out.lines.clear();

  const double u = rng_.NextDouble();
  const double mem = behavior_.mem_fraction;
  const double shared = mem + behavior_.shared_fraction;
  if (u < mem) {
    out.kind = rng_.NextBool(behavior_.store_fraction) ? OpKind::kStore
                                                       : OpKind::kLoad;
    // Coalesced base line plus scattered extras.
    const uint64_t base = NextAddress();
    out.lines.push_back(base);
    for (uint32_t t = 1; t < avg_transactions_; ++t) {
      // Scattered lanes touch unrelated lines across the footprint.
      const uint64_t line = rng_.NextBounded(footprint_lines_);
      out.lines.push_back(region_base_ + line * config_.line_bytes);
    }
  } else if (u < shared) {
    out.kind = OpKind::kSharedMem;
  } else {
    // Compute mix: branches proportional to divergence, a small SFU
    // share, FP16/FP32 per the behaviour, rest integer ALU.
    const double v = rng_.NextDouble();
    const double branch = 0.04 + 0.1 * behavior_.branch_divergence;
    if (v < branch) {
      out.kind = OpKind::kBranch;
    } else if (v < branch + 0.05) {
      out.kind = OpKind::kSfu;
    } else if (v < branch + 0.05 + behavior_.fp16_fraction) {
      out.kind = OpKind::kFp16;
    } else if (v < branch + 0.05 + behavior_.fp16_fraction +
                       behavior_.fp32_fraction) {
      out.kind = OpKind::kFp32;
    } else {
      out.kind = OpKind::kAlu;
    }
  }
  return true;
}

}  // namespace stemroot::sim
