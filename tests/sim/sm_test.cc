#include "sim/sm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "hw/gpu_spec.h"
#include "sim/cta_scheduler.h"
#include "sim/simulator.h"

namespace stemroot::sim {
namespace {

/// The min-heap issue loop that `SmModel::ExecuteWave`'s round-robin ring
/// replaced, kept verbatim as the reference: a `std::priority_queue` on
/// `ready` whose ties fall to the library's heap order. The `done` flags
/// it read live in a local vector here.
class ReferenceSm {
 public:
  ReferenceSm(const SimConfig& config, Cache* l2, DramModel* dram)
      : config_(config),
        l1_(config.l1_bytes, config.l1_assoc, config.line_bytes),
        l2_(l2), dram_(dram) {}

  double ExecuteWave(std::vector<WarpContext>& warps, double start_cycle,
                     const PeerWarming& peer_warming, SmStats* stats) {
    struct HeapEntry {
      double ready;
      uint32_t warp;
      bool operator>(const HeapEntry& other) const {
        return ready > other.ready;
      }
    };
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>> heap;
    std::vector<bool> done(warps.size(), false);
    for (uint32_t w = 0; w < warps.size(); ++w) {
      warps[w].ready = start_cycle;
      warps[w].result_ready = start_cycle;
      heap.push({start_cycle, w});
    }

    const double issue_interval = 1.0 / config_.issue_width;
    double issue_free = start_cycle;
    double finish = start_cycle;
    WarpInstr instr;

    while (!heap.empty()) {
      const HeapEntry entry = heap.top();
      heap.pop();
      WarpContext& warp = warps[entry.warp];
      if (done[entry.warp]) continue;

      if (!warp.program->Next(instr)) {
        done[entry.warp] = true;
        finish = std::max(finish, warp.ready);
        continue;
      }
      if (stats) ++stats->warp_instructions;

      double t = std::max(entry.ready, issue_free);
      if (instr.depends_on_prev) t = std::max(t, warp.result_ready);
      issue_free = t + issue_interval;

      double result_at = t;
      switch (instr.kind) {
        case OpKind::kAlu:
          result_at = t + config_.alu_latency;
          break;
        case OpKind::kFp32:
          result_at = t + config_.fp32_latency;
          break;
        case OpKind::kFp16:
          result_at = t + config_.fp16_latency;
          break;
        case OpKind::kSfu:
          result_at = t + config_.sfu_latency;
          break;
        case OpKind::kSharedMem:
          result_at = t + config_.shmem_latency;
          break;
        case OpKind::kBranch:
          result_at = t + config_.alu_latency;
          issue_free += issue_interval;
          break;
        case OpKind::kLoad:
        case OpKind::kStore: {
          double data_at = t;
          for (uint64_t line : instr.lines) {
            double line_at;
            if (l1_.Access(line)) {
              if (stats) ++stats->l1_hits;
              line_at = t + config_.l1_latency;
            } else {
              if (stats) ++stats->l1_misses;
              if (l2_->Access(line)) {
                if (stats) ++stats->l2_hits;
                line_at = t + config_.l1_latency + config_.l2_latency;
              } else {
                if (stats) {
                  ++stats->l2_misses;
                  stats->dram_bytes += config_.line_bytes;
                }
                line_at = dram_->Request(t + config_.l1_latency +
                                             config_.l2_latency,
                                         config_.line_bytes);
                if (peer_warming.peers > 0 &&
                    line >= peer_warming.region_base) {
                  constexpr uint64_t kPeerStride = 2654435761ULL;
                  const uint64_t footprint = peer_warming.footprint_lines;
                  const uint64_t step = kPeerStride % footprint;
                  uint64_t sibling = (line - peer_warming.region_base) /
                                     config_.line_bytes % footprint;
                  for (uint32_t peer = 1; peer <= peer_warming.peers;
                       ++peer) {
                    sibling += step;
                    if (sibling >= footprint) sibling -= footprint;
                    (void)l2_->Access(peer_warming.region_base +
                                      sibling * config_.line_bytes);
                  }
                }
              }
            }
            data_at = std::max(data_at, line_at);
          }
          result_at = instr.kind == OpKind::kLoad ? data_at : t + 1.0;
          break;
        }
      }

      warp.ready = t + 1.0;
      warp.result_ready = result_at;
      finish = std::max(finish, result_at);
      heap.push({warp.ready, entry.warp});
    }
    return finish;
  }

  void ResetL1() { l1_.Flush(); }
  uint64_t L1Digest() const { return l1_.ContentDigest(); }

 private:
  const SimConfig& config_;
  Cache l1_;
  Cache* l2_;
  DramModel* dram_;
};

/// One SM with its own L2 slice and DRAM share. Not movable: the SM and
/// every WarpProgram built from `config` keep references to it.
template <typename Sm>
struct World {
  explicit World(const SimConfig& c)
      : config(c), l2(config.l2_bytes, config.l2_assoc, config.line_bytes),
        dram(config.DramShareBytesPerCycle(), config.dram_latency),
        sm(config, &l2, &dram) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const SimConfig config;
  Cache l2;
  DramModel dram;
  Sm sm;
  SmStats stats;
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

KernelBehavior RandomBehavior(Rng& rng, uint32_t threads) {
  KernelBehavior b;
  b.instructions = threads * (1 + rng.NextBounded(120));
  b.footprint_bytes = 4096 + rng.NextBounded(8ull << 20);
  b.mem_fraction = static_cast<float>(rng.NextDouble(0.0, 0.5));
  b.shared_fraction = static_cast<float>(rng.NextDouble(0.0, 0.2));
  b.locality = static_cast<float>(rng.NextDouble());
  b.coalescing = static_cast<float>(rng.NextDouble());
  b.branch_divergence = static_cast<float>(rng.NextDouble());
  b.fp16_fraction = static_cast<float>(rng.NextDouble(0.0, 0.3));
  b.fp32_fraction = static_cast<float>(rng.NextDouble(0.0, 0.5));
  b.ilp = static_cast<float>(rng.NextDouble(1.0, 4.0));
  b.store_fraction = static_cast<float>(rng.NextDouble());
  return b;
}

/// `n` fresh warps of one kernel, warp ids from `first_id`.
std::vector<WarpContext> MakeWave(const KernelBehavior& behavior,
                                  const LaunchConfig& launch,
                                  const SimConfig& config, uint64_t seed,
                                  uint64_t region_base, uint32_t n,
                                  uint32_t first_id) {
  std::vector<WarpContext> warps;
  warps.reserve(n);
  for (uint32_t w = 0; w < n; ++w)
    warps.emplace_back(behavior, launch, config, seed, region_base,
                       first_id + w);
  return warps;
}

void ExpectSameStats(const SmStats& a, const SmStats& b) {
  EXPECT_EQ(a.warp_instructions, b.warp_instructions);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.l1_misses, b.l1_misses);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
}

/// Seeded random waves of every size 1..64 at three issue widths, on a
/// warmed and on a flushed L2: the ring must reproduce the heap bit for
/// bit, down to cache contents and DRAM bus time.
TEST(SmRingTest, MatchesTheHeapOnRandomWaves) {
  constexpr uint32_t kThreads = 32;
  LaunchConfig launch;
  launch.block_x = kThreads;
  Rng rng(0x5EED5EEDULL);
  for (const double issue_width : {4.0, 1.0, 0.5}) {
    SimConfig config = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
    config.issue_width = issue_width;
    for (uint32_t n = 1; n <= 64; ++n) {
      for (const bool flush_l2 : {false, true}) {
        SCOPED_TRACE(testing::Message() << "issue_width " << issue_width
                                        << ", " << n << " warps, "
                                        << (flush_l2 ? "flushed" : "warm"));
        const uint64_t seed = rng();
        const uint64_t region = (rng() & 0xFFFFull) << 40;
        const KernelBehavior warm = RandomBehavior(rng, kThreads);
        const KernelBehavior behavior = RandomBehavior(rng, kThreads);
        PeerWarming peers;
        peers.region_base = region;
        peers.footprint_lines = std::max<uint64_t>(
            1, behavior.footprint_bytes / config.line_bytes);
        peers.peers = rng.NextBool(0.5) ? config.num_sms - 1 : 0;

        World<SmModel> ring(config);
        World<ReferenceSm> heap(config);
        // Warm both L2 slices with an earlier wave, then optionally
        // flush; the measured wave starts where that one ended.
        std::vector<WarpContext> ring_warm =
            MakeWave(warm, launch, ring.config, seed, region, 24, 1000);
        std::vector<WarpContext> heap_warm =
            MakeWave(warm, launch, heap.config, seed, region, 24, 1000);
        const double start =
            ring.sm.ExecuteWave(ring_warm, 0.0, peers, nullptr);
        ASSERT_EQ(Bits(start),
                  Bits(heap.sm.ExecuteWave(heap_warm, 0.0, peers, nullptr)));
        if (flush_l2) {
          ring.l2.Flush();
          heap.l2.Flush();
        }

        std::vector<WarpContext> ring_wave =
            MakeWave(behavior, launch, ring.config, seed + 1, region, n, 0);
        std::vector<WarpContext> heap_wave =
            MakeWave(behavior, launch, heap.config, seed + 1, region, n, 0);
        const double ring_end =
            ring.sm.ExecuteWave(ring_wave, start, peers, &ring.stats);
        const double heap_end =
            heap.sm.ExecuteWave(heap_wave, start, peers, &heap.stats);
        EXPECT_EQ(Bits(ring_end), Bits(heap_end));
        ExpectSameStats(ring.stats, heap.stats);
        EXPECT_EQ(ring.sm.L1Digest(), heap.sm.L1Digest());
        EXPECT_EQ(ring.l2.ContentDigest(), heap.l2.ContentDigest());
        EXPECT_EQ(Bits(ring.dram.BusyCycles()), Bits(heap.dram.BusyCycles()));
        if (HasFailure()) return;
      }
    }
  }
}

/// The reference side of Simulator::SimulateKernelWaves, wave for wave.
WaveSimResult ReferenceKernelWaves(World<ReferenceSm>& world,
                                   const KernelInvocation& inv,
                                   uint64_t seed, uint64_t max_waves) {
  const SimConfig& config = world.config;
  WaveSimResult result;
  const uint64_t stream_seed = DeriveSeed(seed, inv.seq);
  const uint64_t region_base =
      (DeriveSeed(0xDA7A0000ULL, inv.kernel_id) & 0xFFFFFFull) << 40;
  const WavePlan plan = PlanWaves(inv.launch, config);
  result.total_waves = plan.wave_warps.size();
  world.sm.ResetL1();
  world.dram.Reset();
  PeerWarming peers;
  peers.region_base = region_base;
  peers.footprint_lines =
      std::max<uint64_t>(1, inv.behavior.footprint_bytes / config.line_bytes);
  peers.peers = config.num_sms - 1;
  double cycle = 0.0;
  uint32_t warp_id = 0;
  for (uint32_t wave_warps : plan.wave_warps) {
    if (max_waves != 0 && result.wave_cycles.size() >= max_waves) break;
    std::vector<WarpContext> warps =
        MakeWave(inv.behavior, inv.launch, config, stream_seed, region_base,
                 wave_warps, warp_id);
    warp_id += wave_warps;
    const double end =
        world.sm.ExecuteWave(warps, cycle, peers, &result.stats);
    result.wave_cycles.push_back(end - cycle);
    cycle = end;
  }
  return result;
}

/// Multi-wave kernels (30-warp waves, a short last wave) through the
/// production SimulateKernelWaves, truncated and whole, back to back on
/// one L2 so the second launch runs warm.
TEST(SmRingTest, MatchesTheHeapAcrossKernelWaves) {
  const SimConfig config = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
  KernelInvocation inv;
  inv.kernel_id = 3;
  inv.seq = 17;
  inv.launch.grid_x = config.num_sms * 23;
  inv.launch.block_x = 96;
  Rng rng(0xC0FFEEULL);
  inv.behavior = RandomBehavior(rng, 1);
  inv.behavior.instructions = inv.launch.TotalThreads() * 150;
  inv.behavior.mem_fraction = 0.3f;

  Simulator sim(config);
  World<ReferenceSm> heap(config);
  for (const uint64_t max_waves : {3ull, 0ull}) {
    SCOPED_TRACE(testing::Message() << "max_waves " << max_waves);
    const WaveSimResult got = sim.SimulateKernelWaves(inv, 99, max_waves);
    const WaveSimResult want = ReferenceKernelWaves(heap, inv, 99, max_waves);
    EXPECT_EQ(got.total_waves, want.total_waves);
    ASSERT_EQ(got.wave_cycles.size(), want.wave_cycles.size());
    EXPECT_GT(got.wave_cycles.size(), 1u);
    for (size_t w = 0; w < got.wave_cycles.size(); ++w)
      EXPECT_EQ(Bits(got.wave_cycles[w]), Bits(want.wave_cycles[w])) << w;
    ExpectSameStats(got.stats, want.stats);
    EXPECT_EQ(sim.L1Digest(), heap.sm.L1Digest());
    EXPECT_EQ(sim.L2Digest(), heap.l2.ContentDigest());
    EXPECT_EQ(Bits(sim.Dram().BusyCycles()), Bits(heap.dram.BusyCycles()));
  }
}

/// Past 2^53 cycles `t + 1` rounds back to `t`: keys stop growing, the
/// ring's proof no longer holds, and ExecuteWave says so.
TEST(SmRingTest, RefusesIssueTimesThatStopIncreasing) {
  const SimConfig config = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
  World<SmModel> world(config);
  KernelBehavior behavior;
  behavior.instructions = 32 * 4;
  LaunchConfig launch;
  std::vector<WarpContext> warps =
      MakeWave(behavior, launch, world.config, 1, 0, 4, 0);
  EXPECT_THROW(world.sm.ExecuteWave(warps, 0x1p60, PeerWarming{}, nullptr),
               std::logic_error);
}

/// The first round assumes every warp issues once, so a wave holding a
/// spent warp is refused rather than scheduled in a different order.
TEST(SmRingTest, RefusesSpentWarps) {
  const SimConfig config = SimConfig::FromSpec(hw::GpuSpec::Rtx2080());
  World<SmModel> world(config);
  KernelBehavior behavior;
  behavior.instructions = 32 * 4;
  LaunchConfig launch;
  std::vector<WarpContext> warps =
      MakeWave(behavior, launch, world.config, 1, 0, 4, 0);
  const double end = world.sm.ExecuteWave(warps, 0.0, PeerWarming{}, nullptr);
  EXPECT_GT(end, 0.0);
  EXPECT_THROW(world.sm.ExecuteWave(warps, end, PeerWarming{}, nullptr),
               std::logic_error);
}

}  // namespace
}  // namespace stemroot::sim
