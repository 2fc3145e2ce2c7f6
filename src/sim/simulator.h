/// \file
/// Kernel-level cycle simulator (the MacSim-like substrate).
///
/// A Simulator instance owns the persistent shared state (the L2 slice and
/// DRAM channel), so consecutive kernels of one workload observe warm L2
/// content -- the inter-kernel reuse discussed in the paper's Sec. 6.2.
/// FlushL2() reproduces the paper's extreme-case warmup experiment.

#pragma once

#include <cstdint>

#include "sim/cta_scheduler.h"
#include "sim/dram.h"
#include "sim/sm.h"
#include "trace/trace.h"

namespace stemroot::sim {

/// Result of simulating one kernel invocation.
struct KernelSimResult {
  double cycles = 0.0;
  SmStats stats;

  /// Convert to microseconds at the config's clock.
  double Microseconds(const SimConfig& config) const {
    return cycles / (config.clock_ghz * 1e3);
  }
};

/// Wave-resolved result (intra-kernel sampling builds on this).
struct WaveSimResult {
  /// Cycles consumed by each simulated wave, in launch order.
  std::vector<double> wave_cycles;
  /// Total waves the launch would execute (>= wave_cycles.size()).
  uint64_t total_waves = 0;
  SmStats stats;
};

/// The simulator.
class Simulator {
 public:
  explicit Simulator(SimConfig config);

  const SimConfig& Config() const { return config_; }

  /// Simulate one kernel invocation. `seed` individualizes the synthetic
  /// instruction streams (full and sampled simulation of the same
  /// invocation use the same seed and therefore identical traces). The L1
  /// starts cold per kernel; the L2 slice persists across calls.
  KernelSimResult SimulateKernel(const KernelInvocation& inv, uint64_t seed);

  /// Simulate at most `max_waves` CTA waves of the launch, reporting
  /// per-wave cycle costs and the launch's total wave count. Used by
  /// intra-kernel sampling (Sec. 7.3) to extrapolate long kernels from a
  /// prefix of their waves. max_waves == 0 means all waves.
  WaveSimResult SimulateKernelWaves(const KernelInvocation& inv,
                                    uint64_t seed, uint64_t max_waves);

  /// Invalidate the persistent L2 slice (warmup ablation).
  void FlushL2();

  /// Content digest of the persistent L2 slice (see Cache::ContentDigest):
  /// the determinism tests pin microarchitectural state, not just cycle
  /// counts.
  uint64_t L2Digest() const { return l2_.ContentDigest(); }

  /// Content digest of the SM's private L1.
  uint64_t L1Digest() const { return sm_.L1Digest(); }

  /// The DRAM channel share (busy-cycle and byte accounting).
  const DramModel& Dram() const { return dram_; }

  /// Logical footprint of this simulator's persistent state (L2 slice +
  /// private L1 + the object itself) in bytes — a pure function of the
  /// SimConfig geometry, for the "sim" category of resource::AccountPeak
  /// (DESIGN.md §15).
  uint64_t ApproxStateBytes() const {
    return sizeof(*this) + l2_.ApproxBytes() + sm_.L1ApproxBytes();
  }

 private:
  SimConfig config_;
  Cache l2_;
  DramModel dram_;
  SmModel sm_;
};

}  // namespace stemroot::sim
