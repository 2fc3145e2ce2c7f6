/// \file
/// The determinism contract of the sharded simulation engine (DESIGN.md
/// §12), pinned at the byte level:
///
///  - `--sim-threads` is a pacing knob: full, sampled, and sampled+intra
///    results are bit-identical at 1/2/4/8 lane threads, including the
///    per-lane L2 content digests and the epoch count.
///  - `--epoch-cycles` is a pacing knob: results are bit-identical across
///    epoch lengths {1, 7, 64, 4096}; only the number of synchronization
///    rounds may change.
///  - `sim_shards == 1` IS the legacy serial algorithm: the engine matches
///    hand-rolled one-Simulator loops (full, sampled-with-warmup, and
///    intra-kernel) bit for bit.
///  - Golden values: exact serial cycle counts for fixed small workloads
///    are hard-coded below, so *any* scheduling, merge-order, or
///    floating-point change in the engine trips a test instead of
///    silently drifting every experiment built on it.
///
/// Doubles are compared through their bit patterns (memcpy to uint64_t):
/// "deterministic" here means byte-identical manifests, not approximately
/// equal numbers.

#include "sim/sharded.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/sampler.h"
#include "hw/hardware_model.h"
#include "sim/intra_kernel.h"
#include "sim/sampled_sim.h"
#include "workloads/rodinia.h"

namespace stemroot::sim {
namespace {

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

void Push(std::vector<uint64_t>& words, double value) {
  words.push_back(Bits(value));
}

void Push(std::vector<uint64_t>& words, const SmStats& stats) {
  words.push_back(stats.warp_instructions);
  words.push_back(stats.l1_hits);
  words.push_back(stats.l1_misses);
  words.push_back(stats.l2_hits);
  words.push_back(stats.l2_misses);
  words.push_back(stats.dram_bytes);
}

void Push(std::vector<uint64_t>& words, const ShardedRunInfo& info) {
  words.push_back(info.lanes);
  for (uint64_t digest : info.lane_l2_digests) words.push_back(digest);
  for (double cycles : info.lane_cycles) Push(words, cycles);
  for (double busy : info.lane_dram_busy) Push(words, busy);
  for (size_t n : info.lane_invocations) words.push_back(n);
}

/// Everything a run produces, as one flat word vector plus the epoch
/// count (the only output allowed to vary with --epoch-cycles).
struct RunSnapshot {
  std::vector<uint64_t> words;
  uint64_t epochs = 0;
};

/// A profiled trace with a STEM sampling plan, ready for all three modes.
struct Workbench {
  KernelTrace trace;
  core::SamplingPlan plan;
  SimConfig config = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
  uint64_t seed = 1;
};

Workbench MakeBench(const std::string& workload, uint64_t trace_seed,
                    uint64_t sim_seed) {
  Workbench bench;
  bench.trace = workloads::MakeRodinia(workload, trace_seed, 0.05);
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  gpu.ProfileTrace(bench.trace, 1);
  core::StemRootSampler sampler;
  bench.plan = sampler.BuildPlan(bench.trace, 1);
  bench.seed = sim_seed;
  return bench;
}

TraceSimOptions MakeOptions(const Workbench& bench, uint32_t shards,
                            int threads, uint64_t epoch_cycles) {
  TraceSimOptions options;
  options.seed = bench.seed;
  options.shard.sim_shards = shards;
  options.shard.sim_threads = threads;
  options.shard.epoch_cycles = epoch_cycles;
  return options;
}

RunSnapshot SnapshotFull(const Workbench& bench,
                         const TraceSimOptions& options) {
  ShardedRunInfo info;
  const TraceSimResult result =
      ShardedSimulateTraceFull(bench.trace, bench.config, options, &info);
  RunSnapshot snap;
  Push(snap.words, result.total_cycles);
  for (double cycles : result.per_invocation_cycles) Push(snap.words, cycles);
  Push(snap.words, result.stats);
  Push(snap.words, info);
  snap.epochs = info.epochs;
  return snap;
}

RunSnapshot SnapshotSampled(const Workbench& bench,
                            const TraceSimOptions& options) {
  ShardedRunInfo info;
  const SampledSimResult result = ShardedSimulateSampled(
      bench.trace, bench.plan, bench.config, options, &info);
  RunSnapshot snap;
  Push(snap.words, result.estimated_total_cycles);
  Push(snap.words, result.simulated_cost_cycles);
  snap.words.push_back(result.kernels_simulated);
  Push(snap.words, info);
  snap.epochs = info.epochs;
  return snap;
}

RunSnapshot SnapshotIntra(const Workbench& bench,
                          const TraceSimOptions& options) {
  ShardedRunInfo info;
  const CombinedSimResult result = ShardedSimulateSampledIntra(
      bench.trace, bench.plan, bench.config, options, {}, &info);
  RunSnapshot snap;
  Push(snap.words, result.estimated_total_cycles);
  Push(snap.words, result.simulated_cost_cycles);
  snap.words.push_back(result.kernels_simulated);
  snap.words.push_back(result.kernels_wave_sampled);
  Push(snap.words, info);
  snap.epochs = info.epochs;
  return snap;
}

// Golden values for gaussian and cfd (trace seed 5, scale 0.05, sim
// seed 1), harvested from the serial engine with printf("%.17g") --
// %.17g round-trips doubles exactly, so EXPECT_EQ compares full bit
// patterns. The build pins the FP environment (base x86-64, no
// -ffast-math, no FMA contraction), so these hold on every conforming
// toolchain.
constexpr uint64_t kGoldenInvocations = 458;
constexpr double kGoldenSerialTotalCycles = 7129089.8157142866;
constexpr double kGoldenFirstKernelCycles = 20182.228571428572;
constexpr double kGoldenLastKernelCycles = 5157.25;
constexpr uint64_t kGoldenWarpInstructions = 1525360;
constexpr double kGoldenSampledEstimate = 7462740.6700000009;
// cfd has real cross-kernel L2 reuse, so lane-private L2s shift its
// total: the pair below pins both models and proves shards is a
// modeling knob (gaussian's kernels barely touch each other's lines --
// its serial and sharded totals coincide).
constexpr double kGoldenCfdSerialTotalCycles = 42382483.522857152;
constexpr double kGoldenCfdShardedTotalCycles = 42381184.875714295;
// H100's L2 has 25,600 sets, so its lookups take the general `%` / `/`
// set-index path (every rtx2080 geometry is a power of two and takes the
// mask/shift path). gaussian, trace seed 5, scale 0.05, sim seed 1, full
// simulation on one Simulator.
constexpr double kGoldenH100TotalCycles = 7286898.160579104;
constexpr uint64_t kGoldenH100L2Digest = 0x6f9c944cd38824eeull;

/// The (workload, trace seed, sim seed) roster every invariance test runs
/// over -- three distinct suites x seeds per the test plan.
struct Combo {
  const char* workload;
  uint64_t trace_seed;
  uint64_t sim_seed;
};
constexpr Combo kCombos[] = {
    {"cfd", 5, 1},
    {"hotspot", 7, 7},
    {"lud", 11, 42},
};

// ---------------------------------------------------------------------------
// Satellite 1: sim_threads invariance (byte-identical at 1/2/4/8 threads).
// ---------------------------------------------------------------------------

TEST(ShardedDeterminismTest, ThreadCountNeverChangesResults) {
  for (const Combo& combo : kCombos) {
    SCOPED_TRACE(combo.workload);
    const Workbench bench =
        MakeBench(combo.workload, combo.trace_seed, combo.sim_seed);
    const TraceSimOptions base = MakeOptions(bench, /*shards=*/4,
                                             /*threads=*/1,
                                             /*epoch_cycles=*/4'000'000);
    const RunSnapshot full = SnapshotFull(bench, base);
    const RunSnapshot sampled = SnapshotSampled(bench, base);
    const RunSnapshot intra = SnapshotIntra(bench, base);
    for (int threads : {2, 4, 8}) {
      SCOPED_TRACE(threads);
      TraceSimOptions options = base;
      options.shard.sim_threads = threads;
      const RunSnapshot full_t = SnapshotFull(bench, options);
      const RunSnapshot sampled_t = SnapshotSampled(bench, options);
      const RunSnapshot intra_t = SnapshotIntra(bench, options);
      EXPECT_EQ(full.words, full_t.words);
      EXPECT_EQ(sampled.words, sampled_t.words);
      EXPECT_EQ(intra.words, intra_t.words);
      // Epoch counts are a function of epoch_cycles alone -- the round
      // targets are derived from lane pacing clocks, which the schedule
      // never touches.
      EXPECT_EQ(full.epochs, full_t.epochs);
      EXPECT_EQ(sampled.epochs, sampled_t.epochs);
      EXPECT_EQ(intra.epochs, intra_t.epochs);
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite 3: epoch-length invariance (property sweep over {1,7,64,4096}).
// ---------------------------------------------------------------------------

TEST(ShardedDeterminismTest, EpochLengthNeverChangesResults) {
  for (const Combo& combo : kCombos) {
    SCOPED_TRACE(combo.workload);
    const Workbench bench =
        MakeBench(combo.workload, combo.trace_seed, combo.sim_seed);
    const TraceSimOptions base = MakeOptions(bench, /*shards=*/4,
                                             /*threads=*/4,
                                             /*epoch_cycles=*/4'000'000);
    const RunSnapshot full = SnapshotFull(bench, base);
    const RunSnapshot sampled = SnapshotSampled(bench, base);
    for (uint64_t epoch : {uint64_t{1}, uint64_t{7}, uint64_t{64},
                           uint64_t{4096}}) {
      SCOPED_TRACE(epoch);
      TraceSimOptions options = base;
      options.shard.epoch_cycles = epoch;
      const RunSnapshot full_e = SnapshotFull(bench, options);
      const RunSnapshot sampled_e = SnapshotSampled(bench, options);
      EXPECT_EQ(full.words, full_e.words);
      EXPECT_EQ(sampled.words, sampled_e.words);
      // Shorter epochs mean *more* synchronization rounds, never fewer:
      // the barrier count is where the knob is allowed to show.
      EXPECT_GE(full_e.epochs, full.epochs);
      EXPECT_GE(sampled_e.epochs, sampled.epochs);
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite 2 (part 1): sim_shards == 1 is the hand-rolled serial loop.
// ---------------------------------------------------------------------------

TEST(ShardedDeterminismTest, OneShardMatchesHandRolledFullLoop) {
  for (const Combo& combo : kCombos) {
    SCOPED_TRACE(combo.workload);
    const Workbench bench =
        MakeBench(combo.workload, combo.trace_seed, combo.sim_seed);
    const TraceSimOptions options =
        MakeOptions(bench, /*shards=*/1, /*threads=*/4,
                    /*epoch_cycles=*/4'000'000);
    const TraceSimResult engine =
        ShardedSimulateTraceFull(bench.trace, bench.config, options);

    // The reference algorithm: one Simulator stepping the timeline in
    // order, L2 persisting across kernels.
    Simulator simulator(bench.config);
    double total = 0.0;
    ASSERT_EQ(engine.per_invocation_cycles.size(),
              bench.trace.NumInvocations());
    for (uint32_t i = 0; i < bench.trace.NumInvocations(); ++i) {
      const KernelSimResult one =
          simulator.SimulateKernel(bench.trace.At(i), options.seed);
      EXPECT_EQ(Bits(engine.per_invocation_cycles[i]), Bits(one.cycles))
          << "invocation " << i;
      total += one.cycles;
    }
    EXPECT_EQ(Bits(engine.total_cycles), Bits(total));
  }
}

TEST(ShardedDeterminismTest, OneShardMatchesHandRolledSampledLoop) {
  for (const Combo& combo : kCombos) {
    SCOPED_TRACE(combo.workload);
    const Workbench bench =
        MakeBench(combo.workload, combo.trace_seed, combo.sim_seed);
    const TraceSimOptions options =
        MakeOptions(bench, /*shards=*/1, /*threads=*/2,
                    /*epoch_cycles=*/4'000'000);
    const SampledSimResult engine = ShardedSimulateSampled(
        bench.trace, bench.plan, bench.config, options);

    // Reference: selected invocations in timeline order on one Simulator,
    // each preceded by the default warmup (previous same-kernel launch,
    // then the immediate predecessor), warmups untimed.
    std::vector<char> selected(bench.trace.NumInvocations(), 0);
    for (uint32_t idx : bench.plan.DistinctInvocations()) selected[idx] = 1;
    std::vector<int64_t> prev_same(bench.trace.NumInvocations(), -1);
    {
      std::vector<int64_t> last(1u << 16, -1);
      for (uint32_t i = 0; i < bench.trace.NumInvocations(); ++i) {
        const uint32_t kernel_id = bench.trace.At(i).kernel_id;
        ASSERT_LT(kernel_id, last.size());
        prev_same[i] = last[kernel_id];
        last[kernel_id] = i;
      }
    }
    Simulator simulator(bench.config);
    std::vector<double> measured(bench.trace.NumInvocations(), 0.0);
    double cost = 0.0;
    size_t kernels = 0;
    for (uint32_t i = 0; i < bench.trace.NumInvocations(); ++i) {
      if (!selected[i]) continue;
      if (prev_same[i] >= 0)
        simulator.SimulateKernel(
            bench.trace.At(static_cast<uint32_t>(prev_same[i])),
            options.seed);
      if (i > 0 && prev_same[i] != static_cast<int64_t>(i) - 1)
        simulator.SimulateKernel(bench.trace.At(i - 1), options.seed);
      const KernelSimResult one =
          simulator.SimulateKernel(bench.trace.At(i), options.seed);
      measured[i] = one.cycles;
      cost += one.cycles;
      ++kernels;
    }
    double estimate = 0.0;
    for (const core::SampleEntry& entry : bench.plan.entries)
      estimate += entry.weight * measured[entry.invocation];

    EXPECT_EQ(Bits(engine.estimated_total_cycles), Bits(estimate));
    EXPECT_EQ(Bits(engine.simulated_cost_cycles), Bits(cost));
    EXPECT_EQ(engine.kernels_simulated, kernels);
  }
}

TEST(ShardedDeterminismTest, OneShardMatchesHandRolledIntraLoop) {
  const Workbench bench = MakeBench("cfd", 5, 1);
  const TraceSimOptions options = MakeOptions(bench, /*shards=*/1,
                                              /*threads=*/2,
                                              /*epoch_cycles=*/4'000'000);
  const IntraKernelOptions intra;
  const CombinedSimResult engine = ShardedSimulateSampledIntra(
      bench.trace, bench.plan, bench.config, options, intra);

  std::vector<char> selected(bench.trace.NumInvocations(), 0);
  for (uint32_t idx : bench.plan.DistinctInvocations()) selected[idx] = 1;
  std::vector<int64_t> prev_same(bench.trace.NumInvocations(), -1);
  std::vector<int64_t> last(1u << 16, -1);
  for (uint32_t i = 0; i < bench.trace.NumInvocations(); ++i) {
    const uint32_t kernel_id = bench.trace.At(i).kernel_id;
    ASSERT_LT(kernel_id, last.size());
    prev_same[i] = last[kernel_id];
    last[kernel_id] = i;
  }
  Simulator simulator(bench.config);
  std::vector<double> measured(bench.trace.NumInvocations(), 0.0);
  double cost = 0.0;
  size_t kernels = 0;
  size_t wave_sampled = 0;
  for (uint32_t i = 0; i < bench.trace.NumInvocations(); ++i) {
    if (!selected[i]) continue;
    // Warmup replays are themselves wave-sampled in this mode.
    if (prev_same[i] >= 0)
      SimulateKernelIntra(simulator,
                          bench.trace.At(static_cast<uint32_t>(prev_same[i])),
                          options.seed, intra);
    if (i > 0 && prev_same[i] != static_cast<int64_t>(i) - 1)
      SimulateKernelIntra(simulator, bench.trace.At(i - 1), options.seed,
                          intra);
    const IntraKernelResult one =
        SimulateKernelIntra(simulator, bench.trace.At(i), options.seed, intra);
    measured[i] = one.estimated_cycles;
    cost += one.simulated_cycles;
    ++kernels;
    if (one.sampled) ++wave_sampled;
  }
  double estimate = 0.0;
  for (const core::SampleEntry& entry : bench.plan.entries)
    estimate += entry.weight * measured[entry.invocation];

  EXPECT_EQ(Bits(engine.estimated_total_cycles), Bits(estimate));
  EXPECT_EQ(Bits(engine.simulated_cost_cycles), Bits(cost));
  EXPECT_EQ(engine.kernels_simulated, kernels);
  EXPECT_EQ(engine.kernels_wave_sampled, wave_sampled);
}

TEST(ShardedDeterminismTest, FlushOptionStillSerialEquivalent) {
  const Workbench bench = MakeBench("hotspot", 7, 7);
  TraceSimOptions options = MakeOptions(bench, /*shards=*/1, /*threads=*/4,
                                        /*epoch_cycles=*/4'000'000);
  options.flush_l2_between_kernels = true;
  const TraceSimResult engine =
      ShardedSimulateTraceFull(bench.trace, bench.config, options);

  Simulator simulator(bench.config);
  double total = 0.0;
  for (uint32_t i = 0; i < bench.trace.NumInvocations(); ++i) {
    simulator.FlushL2();
    total += simulator.SimulateKernel(bench.trace.At(i), options.seed).cycles;
  }
  EXPECT_EQ(Bits(engine.total_cycles), Bits(total));
}

// ---------------------------------------------------------------------------
// Engine structure: lanes partition the timeline, shards gate modeling.
// ---------------------------------------------------------------------------

TEST(ShardedDeterminismTest, LanesPartitionEveryInvocation) {
  const Workbench bench = MakeBench("cfd", 5, 1);
  ShardedRunInfo info;
  const TraceSimOptions options = MakeOptions(bench, /*shards=*/4,
                                              /*threads=*/4,
                                              /*epoch_cycles=*/4'000'000);
  ShardedSimulateTraceFull(bench.trace, bench.config, options, &info);
  EXPECT_EQ(info.lanes, 4u);
  EXPECT_GE(info.epochs, 1u);
  size_t covered = 0;
  size_t busy_lanes = 0;
  for (size_t n : info.lane_invocations) {
    covered += n;
    if (n > 0) ++busy_lanes;
  }
  EXPECT_EQ(covered, bench.trace.NumInvocations());
  // Kernel-affine LPT may leave a lane empty on a kernel-poor trace, but
  // the partition must actually spread this one.
  EXPECT_GE(busy_lanes, 2u);
  ASSERT_EQ(info.lane_cycles.size(), 4u);
  for (size_t i = 0; i < info.lane_cycles.size(); ++i) {
    if (info.lane_invocations[i] > 0)
      EXPECT_GT(info.lane_cycles[i], 0.0) << "lane " << i;
    else
      EXPECT_EQ(info.lane_cycles[i], 0.0) << "lane " << i;
  }
}

TEST(ShardedDeterminismTest, InvalidShardOptionsThrow) {
  const Workbench bench = MakeBench("lud", 11, 42);
  TraceSimOptions options;
  options.shard.sim_shards = 0;
  EXPECT_THROW(ShardedSimulateTraceFull(bench.trace, bench.config, options),
               std::invalid_argument);
  options.shard.sim_shards = 1;
  options.shard.epoch_cycles = 0;
  EXPECT_THROW(ShardedSimulateTraceFull(bench.trace, bench.config, options),
               std::invalid_argument);
  options.shard.epoch_cycles = 1;
  options.shard.sim_threads = -1;
  EXPECT_THROW(ShardedSimulateTraceFull(bench.trace, bench.config, options),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Satellite 2 (part 2): golden values. Exact doubles harvested from the
// serial engine on x86-64 (printf %.17g round-trips bit-exactly); any
// change in scheduling, merge order, or kernel math must trip these.
// ---------------------------------------------------------------------------

TEST(ShardedDeterminismTest, GoldenSerialCycleCountsPinned) {
  const Workbench bench = MakeBench("gaussian", 5, 1);
  const TraceSimOptions serial = MakeOptions(bench, /*shards=*/1,
                                             /*threads=*/1,
                                             /*epoch_cycles=*/4'000'000);
  const TraceSimResult full =
      ShardedSimulateTraceFull(bench.trace, bench.config, serial);
  ASSERT_EQ(bench.trace.NumInvocations(), kGoldenInvocations);
  EXPECT_EQ(full.total_cycles, kGoldenSerialTotalCycles);
  EXPECT_EQ(full.per_invocation_cycles.front(), kGoldenFirstKernelCycles);
  EXPECT_EQ(full.per_invocation_cycles.back(), kGoldenLastKernelCycles);
  EXPECT_EQ(full.stats.warp_instructions, kGoldenWarpInstructions);

  const SampledSimResult sampled =
      ShardedSimulateSampled(bench.trace, bench.plan, bench.config, serial);
  EXPECT_EQ(sampled.estimated_total_cycles, kGoldenSampledEstimate);

  // The parallel path must land on the same bytes (here at 8 threads and
  // a deliberately odd epoch length).
  const TraceSimOptions parallel = MakeOptions(bench, /*shards=*/1,
                                               /*threads=*/8,
                                               /*epoch_cycles=*/7);
  EXPECT_EQ(ShardedSimulateTraceFull(bench.trace, bench.config, parallel)
                .total_cycles,
            kGoldenSerialTotalCycles);
}

TEST(ShardedDeterminismTest, GoldenShardedCycleCountsPinned) {
  // shards == 4 is a different -- equally pinned -- model: lane-private
  // L2s drop cross-kernel pollution between lanes, so on a workload with
  // real inter-kernel reuse (cfd) the total shifts, and manifests with
  // different sim_shards are not comparable.
  const Workbench bench = MakeBench("cfd", 5, 1);
  const TraceSimResult serial = ShardedSimulateTraceFull(
      bench.trace, bench.config,
      MakeOptions(bench, /*shards=*/1, /*threads=*/1,
                  /*epoch_cycles=*/4'000'000));
  const TraceSimResult sharded = ShardedSimulateTraceFull(
      bench.trace, bench.config,
      MakeOptions(bench, /*shards=*/4, /*threads=*/4,
                  /*epoch_cycles=*/4'000'000));
  EXPECT_EQ(serial.total_cycles, kGoldenCfdSerialTotalCycles);
  EXPECT_EQ(sharded.total_cycles, kGoldenCfdShardedTotalCycles);
  EXPECT_NE(kGoldenCfdShardedTotalCycles, kGoldenCfdSerialTotalCycles);
  // Instruction counts are schedule- and shard-invariant: every
  // invocation runs exactly once either way.
  EXPECT_EQ(serial.stats.warp_instructions, sharded.stats.warp_instructions);
}

TEST(ShardedDeterminismTest, GoldenH100FullSimulationPinned) {
  const SimConfig config = SimConfig::FromSpec(hw::GpuSpec::H100());
  const uint64_t l2_sets = config.l2_bytes / config.line_bytes /
                           config.l2_assoc;
  ASSERT_NE(l2_sets & (l2_sets - 1), 0u);  // not a power of two
  Simulator simulator(config);
  const KernelTrace trace = workloads::MakeRodinia("gaussian", 5, 0.05);
  double total = 0.0;
  for (uint32_t i = 0; i < trace.NumInvocations(); ++i)
    total += simulator.SimulateKernel(trace.At(i), 1).cycles;
  EXPECT_EQ(total, kGoldenH100TotalCycles);
  EXPECT_EQ(simulator.L2Digest(), kGoldenH100L2Digest);
}

}  // namespace
}  // namespace stemroot::sim
