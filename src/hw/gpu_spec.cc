#include "hw/gpu_spec.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "common/str.h"

namespace stemroot::hw {

namespace {

/// False for zero, negatives, NaN and +-inf (a bare `x <= 0` check lets
/// NaN through).
bool FinitePositive(double x) { return std::isfinite(x) && x > 0.0; }

/// Like FinitePositive but admits zero.
bool FiniteNonNegative(double x) { return std::isfinite(x) && x >= 0.0; }

/// llround of a scaled size, refused unless it stays below `limit`
/// (llround of an out-of-range value is unspecified).
uint64_t RoundScaled(double value, double limit, const char* what) {
  if (!(value < limit))
    throw std::invalid_argument(std::string(what) + ": factor too large");
  return static_cast<uint64_t>(std::llround(value));
}

}  // namespace

GpuSpec GpuSpec::Rtx2080() {
  GpuSpec spec;
  spec.name = "RTX2080";
  spec.num_sms = 46;
  spec.clock_ghz = 1.71;
  spec.max_warps_per_sm = 32;
  spec.issue_width = 4.0;
  spec.l1_bytes = 64 * 1024;
  spec.l2_bytes = 4ull * 1024 * 1024;
  spec.dram_bw_gbps = 448.0;
  spec.dram_latency_ns = 360.0;
  spec.l2_latency_ns = 170.0;
  spec.fp16_speedup = 2.0;
  return spec;
}

GpuSpec GpuSpec::H100() {
  GpuSpec spec;
  spec.name = "H100";
  spec.num_sms = 132;
  spec.clock_ghz = 1.98;
  spec.max_warps_per_sm = 64;
  spec.issue_width = 4.0;
  spec.l1_bytes = 256 * 1024;
  spec.l2_bytes = 50ull * 1024 * 1024;
  spec.dram_bw_gbps = 3350.0;
  spec.dram_latency_ns = 300.0;
  spec.l2_latency_ns = 140.0;
  spec.fp16_speedup = 4.0;
  spec.launch_overhead_us = 2.0;
  return spec;
}

GpuSpec GpuSpec::H200() {
  // H200 == H100 compute with a substantially upgraded memory subsystem
  // (more HBM capacity and bandwidth) -- the property Fig. 13 leans on.
  GpuSpec spec = H100();
  spec.name = "H200";
  spec.dram_bw_gbps = 4800.0;
  spec.dram_latency_ns = 280.0;
  spec.l2_bytes = 50ull * 1024 * 1024;
  return spec;
}

namespace {

std::string ToLower(std::string_view text) {
  std::string lower(text);
  for (char& c : lower)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return lower;
}

}  // namespace

std::optional<GpuSpec> GpuSpec::FromName(std::string_view token) {
  const std::string lower = ToLower(token);
  if (lower == "rtx2080") return Rtx2080();
  if (lower == "h100") return H100();
  if (lower == "h200") return H200();
  return std::nullopt;
}

const std::vector<std::string>& GpuSpec::PresetNames() {
  static const std::vector<std::string> kNames = {"h100", "h200", "rtx2080"};
  return kNames;
}

GpuSpec GpuSpec::WithCacheScale(double factor) const {
  if (!FinitePositive(factor))
    throw std::invalid_argument(
        "GpuSpec::WithCacheScale: factor must be finite and > 0");
  GpuSpec spec = *this;
  spec.name = name + Format("/cache_x%.2g", factor);
  spec.l1_bytes = std::max<uint64_t>(
      1024, RoundScaled(static_cast<double>(l1_bytes) * factor, 0x1p63,
                        "GpuSpec::WithCacheScale"));
  spec.l2_bytes = std::max<uint64_t>(
      16 * 1024, RoundScaled(static_cast<double>(l2_bytes) * factor, 0x1p63,
                             "GpuSpec::WithCacheScale"));
  return spec;
}

GpuSpec GpuSpec::WithSmScale(double factor) const {
  if (!FinitePositive(factor))
    throw std::invalid_argument(
        "GpuSpec::WithSmScale: factor must be finite and > 0");
  GpuSpec spec = *this;
  spec.name = name + Format("/sm_x%.2g", factor);
  spec.num_sms = std::max<uint32_t>(
      1, static_cast<uint32_t>(RoundScaled(num_sms * factor, 4294967295.0,
                                           "GpuSpec::WithSmScale")));
  return spec;
}

void GpuSpec::Validate() const {
  if (num_sms == 0) throw std::invalid_argument("GpuSpec: num_sms == 0");
  if (!FinitePositive(clock_ghz))
    throw std::invalid_argument("GpuSpec: clock must be finite and > 0");
  if (max_warps_per_sm == 0)
    throw std::invalid_argument("GpuSpec: max_warps_per_sm == 0");
  if (warp_size == 0) throw std::invalid_argument("GpuSpec: warp_size == 0");
  if (!FinitePositive(issue_width))
    throw std::invalid_argument("GpuSpec: issue_width must be finite and > 0");
  if (l1_bytes == 0 || l2_bytes == 0)
    throw std::invalid_argument("GpuSpec: zero cache size");
  if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
    throw std::invalid_argument("GpuSpec: line_bytes not a power of two");
  if (!FinitePositive(dram_bw_gbps) || !FiniteNonNegative(dram_latency_ns) ||
      !FiniteNonNegative(l2_latency_ns))
    throw std::invalid_argument("GpuSpec: bad memory parameters");
  if (!(std::isfinite(fp16_speedup) && fp16_speedup >= 1.0))
    throw std::invalid_argument("GpuSpec: fp16_speedup < 1");
}

}  // namespace stemroot::hw
