/// \file
/// GPU hardware specifications.
///
/// A GpuSpec is the coarse microarchitectural parameter set shared by the
/// analytic hardware model (src/hw) and used to seed the cycle-level
/// simulator's configuration (src/sim). Presets model the three GPUs the
/// paper profiles on (RTX 2080, H100, H200); the With*Scale helpers produce
/// the design-space-exploration variants of Table 4 (cache x2 / x0.5,
/// #SM x2 / x0.5).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace stemroot::hw {

/// Coarse GPU microarchitecture description.
struct GpuSpec {
  std::string name = "generic";
  uint32_t num_sms = 46;
  double clock_ghz = 1.5;
  uint32_t max_warps_per_sm = 48;
  uint32_t warp_size = 32;
  /// Per-SM issue width (instructions per cycle per SM at full occupancy).
  double issue_width = 4.0;
  /// L1 data cache per SM, bytes.
  uint64_t l1_bytes = 64 * 1024;
  /// Shared L2, bytes.
  uint64_t l2_bytes = 4ull * 1024 * 1024;
  /// Cache line size, bytes.
  uint32_t line_bytes = 128;
  /// DRAM bandwidth, GB/s.
  double dram_bw_gbps = 448.0;
  /// DRAM access latency, ns.
  double dram_latency_ns = 350.0;
  /// L2 access latency, ns.
  double l2_latency_ns = 160.0;
  /// Throughput multiplier for FP16 relative to FP32 (tensor-core effect).
  double fp16_speedup = 2.0;
  /// Fixed kernel launch overhead, microseconds.
  double launch_overhead_us = 3.0;

  /// Named presets for the paper's hardware.
  static GpuSpec Rtx2080();
  static GpuSpec H100();
  static GpuSpec H200();

  /// Parse a CLI-style preset token ("rtx2080" / "h100" / "h200",
  /// case-insensitive); std::nullopt for unknown names.
  static std::optional<GpuSpec> FromName(std::string_view token);

  /// Preset tokens accepted by FromName, sorted.
  static const std::vector<std::string>& PresetNames();

  /// DSE variants (Table 4): scale both cache levels by `factor`.
  GpuSpec WithCacheScale(double factor) const;
  /// DSE variants (Table 4): scale SM count by `factor` (rounded, >= 1).
  GpuSpec WithSmScale(double factor) const;

  /// Validate positive/nonzero fields; throws std::invalid_argument.
  void Validate() const;
};

}  // namespace stemroot::hw
