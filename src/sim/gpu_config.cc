#include "sim/gpu_config.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace stemroot::sim {

namespace {

/// False for zero, negatives, NaN and +-inf (a bare `x <= 0` check lets
/// NaN through).
bool FinitePositive(double x) { return std::isfinite(x) && x > 0.0; }

}  // namespace

SimConfig SimConfig::FromSpec(const hw::GpuSpec& spec) {
  spec.Validate();
  SimConfig config;
  config.num_sms = spec.num_sms;
  config.warp_size = spec.warp_size;
  config.max_warps_per_sm = spec.max_warps_per_sm;
  config.clock_ghz = spec.clock_ghz;
  config.issue_width = spec.issue_width;
  config.l1_bytes = spec.l1_bytes;
  config.line_bytes = spec.line_bytes;
  config.l2_bytes = spec.l2_bytes;
  config.l2_latency = static_cast<uint32_t>(
      std::lround(spec.l2_latency_ns * spec.clock_ghz));
  config.dram_latency = static_cast<uint32_t>(
      std::lround(spec.dram_latency_ns * spec.clock_ghz));
  // GB/s -> bytes/cycle: bw / (clock * 1e9) * 1e9.
  config.dram_bytes_per_cycle = spec.dram_bw_gbps / spec.clock_ghz;
  return config;
}

double SimConfig::DramShareBytesPerCycle() const {
  return dram_bytes_per_cycle / static_cast<double>(num_sms);
}

void SimConfig::Validate() const {
  if (num_sms == 0 || warp_size == 0 || max_warps_per_sm == 0)
    throw std::invalid_argument("SimConfig: zero machine geometry");
  if (!FinitePositive(clock_ghz) || !FinitePositive(issue_width))
    throw std::invalid_argument("SimConfig: bad clock/issue width");
  if (l1_bytes == 0 || l2_bytes == 0)
    throw std::invalid_argument("SimConfig: zero cache size");
  if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
    throw std::invalid_argument("SimConfig: line size not a power of two");
  if (l1_assoc == 0 || l2_assoc == 0)
    throw std::invalid_argument("SimConfig: zero associativity");
  if (!FinitePositive(dram_bytes_per_cycle))
    throw std::invalid_argument("SimConfig: bad DRAM bandwidth");
}

}  // namespace stemroot::sim
