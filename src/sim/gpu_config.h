/// \file
/// Cycle-level simulator configuration (the MacSim-like substrate of the
/// paper's Sec. 5.4 DSE experiments).
///
/// The simulator models one representative SM in detail and scales by
/// symmetry: CTAs are distributed round-robin, each SM owns a private L1,
/// shares the full-capacity L2, and owns a 1/num_sms share of DRAM
/// bandwidth. This keeps full cycle simulation tractable while preserving
/// exactly the sensitivities the DSE varies: growing caches raises hit
/// rates; doubling SMs halves each SM's CTA share but also halves its
/// DRAM-bandwidth share, so memory-bound kernels do not scale -- the
/// behaviour Table 4 probes.

#pragma once

#include <cstdint>

#include "hw/gpu_spec.h"

namespace stemroot::sim {

/// Carries nothing; kept only so benchmark/ builds until it next changes.
/// Nothing reads it.
struct ShardOptions {};

/// Full simulator parameter set.
struct SimConfig {
  // Machine geometry (from GpuSpec).
  uint32_t num_sms = 46;
  uint32_t warp_size = 32;
  uint32_t max_warps_per_sm = 32;
  double clock_ghz = 1.71;
  double issue_width = 4.0;  ///< warp instructions issued per cycle per SM

  // Private L1.
  uint64_t l1_bytes = 64 * 1024;
  uint32_t l1_assoc = 4;
  uint32_t line_bytes = 128;
  uint32_t l1_latency = 32;  ///< cycles

  // Shared L2 (the simulated SM sees the full capacity; see simulator.cc).
  uint64_t l2_bytes = 4ull * 1024 * 1024;
  uint32_t l2_assoc = 16;
  uint32_t l2_latency = 190;  ///< cycles

  // DRAM.
  uint32_t dram_latency = 480;     ///< cycles
  double dram_bytes_per_cycle = 256.0;  ///< whole-GPU bus width equivalent

  // Execution pipelines (latencies in cycles).
  uint32_t alu_latency = 4;
  uint32_t fp32_latency = 4;
  uint32_t fp16_latency = 2;
  uint32_t sfu_latency = 16;
  uint32_t shmem_latency = 24;

  /// Derive a simulator config from a GpuSpec (clock converts ns
  /// latencies to cycles).
  static SimConfig FromSpec(const hw::GpuSpec& spec);

  /// DRAM bandwidth share of the simulated SM (bytes/cycle).
  double DramShareBytesPerCycle() const;

  /// Validate; throws std::invalid_argument.
  void Validate() const;
};

}  // namespace stemroot::sim
