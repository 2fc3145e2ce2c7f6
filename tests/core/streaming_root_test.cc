#include "core/streaming_root.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "eval/stream.h"
#include "trace/chunked.h"

namespace stemroot::core {
namespace {

std::vector<double> BimodalDurations(size_t per_mode, Rng& rng) {
  std::vector<double> durations;
  for (size_t i = 0; i < per_mode; ++i) {
    durations.push_back(rng.NextGaussian(20.0, 0.6));
    durations.push_back(rng.NextGaussian(200.0, 5.0));
  }
  return durations;
}

TEST(StreamingRootConfigTest, Validation) {
  StreamingRootConfig config;
  EXPECT_NO_THROW(config.Validate());
  config.reservoir_capacity = 4;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = StreamingRootConfig{};
  config.min_split_observations = 1;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = StreamingRootConfig{};
  config.reassess_interval = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = StreamingRootConfig{};
  config.max_clusters = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
}

TEST(StreamingRootTest, RejectsNonPositiveDurations) {
  StreamingRoot root(StreamingRootConfig{}, 1);
  EXPECT_THROW(root.Observe(0.0), std::invalid_argument);
  EXPECT_THROW(root.Observe(-1.0), std::invalid_argument);
}

TEST(StreamingRootTest, CountsAreConserved) {
  Rng rng(3);
  StreamingRoot root(StreamingRootConfig{}, 7);
  const auto durations = BimodalDurations(1500, rng);
  for (double d : durations) root.Observe(d);
  EXPECT_EQ(root.Observations(), durations.size());
  uint64_t total = 0;
  for (const ClusterStats& c : root.Stats()) total += c.n;
  EXPECT_EQ(total, durations.size());
}

TEST(StreamingRootTest, SplitsBimodalStream) {
  Rng rng(5);
  StreamingRoot root(StreamingRootConfig{}, 11);
  for (double d : BimodalDurations(2000, rng)) root.Observe(d);
  const auto stats = root.Stats();
  ASSERT_GE(stats.size(), 2u);
  // Separated modes: at least one cluster per mode, none straddling.
  EXPECT_LT(stats.front().mean, 100.0);
  EXPECT_GT(stats.back().mean, 100.0);
  EXPECT_GE(root.NumSplits(), 1u);
}

TEST(StreamingRootTest, DoesNotSplitNarrowUnimodal) {
  Rng rng(7);
  StreamingRoot root(StreamingRootConfig{}, 13);
  for (int i = 0; i < 5000; ++i) root.Observe(rng.NextGaussian(100.0, 1.0));
  // A 1% CoV population needs no splitting (Eq. 3 already gives m ~ 1);
  // merges must undo any speculative split on early noise.
  EXPECT_LE(root.NumClusters(), 2u);
}

TEST(StreamingRootTest, StatsAreSortedByMean) {
  Rng rng(9);
  StreamingRoot root(StreamingRootConfig{}, 17);
  for (double mode : {15.0, 40.0, 95.0})
    for (int i = 0; i < 2000; ++i)
      root.Observe(rng.NextGaussian(mode, mode * 0.02));
  const auto stats = root.Stats();
  EXPECT_TRUE(std::is_sorted(stats.begin(), stats.end(),
                             [](const ClusterStats& a, const ClusterStats& b) {
                               return a.mean < b.mean;
                             }));
}

TEST(StreamingRootTest, DeterministicForSameFeedOrder) {
  Rng rng(11);
  const auto durations = BimodalDurations(1000, rng);
  StreamingRoot a(StreamingRootConfig{}, 23);
  StreamingRoot b(StreamingRootConfig{}, 23);
  for (double d : durations) a.Observe(d);
  for (double d : durations) b.Observe(d);
  const auto sa = a.Stats();
  const auto sb = b.Stats();
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].n, sb[i].n);
    EXPECT_EQ(sa[i].mean, sb[i].mean);
    EXPECT_EQ(sa[i].stddev, sb[i].stddev);
  }
  EXPECT_EQ(a.NumSplits(), b.NumSplits());
  EXPECT_EQ(a.NumMerges(), b.NumMerges());
}

/// A long four-mode stream with a lognormal tail: its big clusters hold
/// thousands of members, so their reservoirs are full and most
/// reassessments find them unchanged.
std::vector<double> GoldenStream() {
  Rng rng(2025);
  const double modes[] = {12.0, 45.0, 160.0, 900.0};
  std::vector<double> durations;
  durations.reserve(40000);
  for (int i = 0; i < 40000; ++i) {
    const uint64_t pick = rng.NextBounded(10);
    if (pick == 9) {
      durations.push_back(rng.NextLogNormal(4.0, 0.8));
    } else {
      const double mode = modes[pick % 4];
      durations.push_back(rng.NextGaussian(mode, mode * 0.04));
    }
  }
  return durations;
}

TEST(StreamingRootTest, GoldenStructureWithFullReservoirs) {
  // Exact structure (hex doubles) of GoldenStream(), recorded when every
  // reassessment re-ran k-means. Reusing the split probe of an unchanged
  // reservoir must reproduce it bit for bit.
  const ClusterStats expected[] = {
      {46u, 0x1.a7db1dabd963bp+2, 0x1.d0c477d3f031fp+0},
      {1634u, 0x1.6608475aefc3p+3, 0x1.16847e0599d24p-2},
      {4850u, 0x1.7911e5cbceeacp+3, 0x1.5c0c3f6183bc3p-3},
      {5212u, 0x1.8cffe08ecb389p+3, 0x1.2e82942f4a26ap-2},
      {129u, 0x1.ded6e6a575e5bp+3, 0x1.df3f9818e8a45p-2},
      {212u, 0x1.06ead63650e11p+4, 0x1.e65d195ae1b2p-2},
      {109u, 0x1.1ce6f66086fd4p+4, 0x1.188c08118b49fp-2},
      {122u, 0x1.30f5e45c207d6p+4, 0x1.cbbc304cff6dbp-2},
      {147u, 0x1.4de2a3ec890bcp+4, 0x1.3b59a06befdbdp-1},
      {79u, 0x1.6d0ab55a96539p+4, 0x1.d4ae4d114cf7ep-2},
      {106u, 0x1.8cf9daf24aaf6p+4, 0x1.432ca4af99083p-1},
      {127u, 0x1.b03c45e72febfp+4, 0x1.678f552063e86p-1},
      {135u, 0x1.da3e1f6742177p+4, 0x1.a93c43a412a7fp-1},
      {66u, 0x1.f9fbf9691f7f5p+4, 0x1.f96214987b404p-2},
      {86u, 0x1.090f836f8588fp+5, 0x1.f0f33eaaa4243p-2},
      {120u, 0x1.1960b186d6644p+5, 0x1.6aaa98a211a17p-1},
      {150u, 0x1.312d0a75cc8cep+5, 0x1.ed6ca82a1cee3p-1},
      {2513u, 0x1.50e0b8b639e76p+5, 0x1.fde4f3e76c13cp-1},
      {3381u, 0x1.689225ef60f54p+5, 0x1.c54520b922ad3p-1},
      {1762u, 0x1.824fa8818ff89p+5, 0x1.1854f74271c8dp+0},
      {885u, 0x1.aa8226a695bf9p+5, 0x1.3bfbf7338f149p+0},
      {248u, 0x1.d3d97e1d74779p+5, 0x1.e849c4124cbf7p+0},
      {173u, 0x1.0170e044669fp+6, 0x1.a6066d7d31f8cp+0},
      {148u, 0x1.191cced74a898p+6, 0x1.8de6ae047fa94p+0},
      {251u, 0x1.34d042c164413p+6, 0x1.4b5d3ce53b3a9p+1},
      {147u, 0x1.5aba7141f03acp+6, 0x1.35a4598ba15afp+1},
      {81u, 0x1.761756467dae4p+6, 0x1.74ca6392e4d72p+0},
      {157u, 0x1.9481ef745c01ep+6, 0x1.85a8c3c2927d2p+1},
      {111u, 0x1.bd57c8571549p+6, 0x1.5a19a8796cb57p+1},
      {84u, 0x1.e0b0c1f3414cbp+6, 0x1.48c4b3fb740a6p+1},
      {111u, 0x1.084c54c8a8417p+7, 0x1.290e0a3363179p+2},
      {133u, 0x1.24173f653b389p+7, 0x1.84ee5f6acd12ep+1},
      {4365u, 0x1.3707de3b1a176p+7, 0x1.da82a234cbd8ep+1},
      {3544u, 0x1.4b0b4526b5a7cp+7, 0x1.01fbbd4b6ddccp+2},
      {364u, 0x1.99b139a1d43eap+7, 0x1.fc0048fabd4a7p+2},
      {42u, 0x1.d342bde24c5aep+7, 0x1.2e310356f35afp+3},
      {59u, 0x1.19359fddbd9ffp+8, 0x1.36f15a3de9c12p+4},
      {44u, 0x1.8f738611d4e66p+8, 0x1.2209793983bbbp+6},
      {3790u, 0x1.b3280d1f6a4a6p+9, 0x1.58a703f70a3dp+4},
      {4277u, 0x1.cfe4d04b14481p+9, 0x1.5fe95cc2703cbp+4},
  };
  telemetry::SetEnabled(true);
  telemetry::Reset();
  StreamingRoot root(StreamingRootConfig{}, 77);
  for (double d : GoldenStream()) root.Observe(d);
  const uint64_t kmeans_runs =
      telemetry::Capture().Counter("core.kmeans.runs");
  telemetry::SetEnabled(false);
  telemetry::Reset();

  EXPECT_EQ(root.NumSplits(), 93u);
  EXPECT_EQ(root.NumMerges(), 54u);
  const std::vector<ClusterStats> stats = root.Stats();
  ASSERT_EQ(stats.size(), std::size(expected));
  for (size_t i = 0; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].n, expected[i].n) << "cluster " << i;
    EXPECT_EQ(stats[i].mean, expected[i].mean) << "cluster " << i;
    EXPECT_EQ(stats[i].stddev, expected[i].stddev) << "cluster " << i;
  }
  // Re-running k-means at every reassessment costs 11497 runs on this
  // stream; the probe cache must skip a good share of them.
  EXPECT_GT(kmeans_runs, 0u);
  EXPECT_LT(kmeans_runs, 11497u / 2);
}

TEST(StreamingRootTest, RespectsMaxClusters) {
  Rng rng(13);
  StreamingRootConfig config;
  config.max_clusters = 2;
  StreamingRoot root(config, 29);
  // A wide lognormal invites many splits; the cap must hold anyway.
  for (int i = 0; i < 8000; ++i) root.Observe(rng.NextLogNormal(2.0, 1.5));
  EXPECT_LE(root.NumClusters(), 2u);
}

TEST(StreamingRootTest, ApproximatesBatchStructure) {
  // The streaming structure is advisory, but on a well-separated stream it
  // should land on the same mode count batch ROOT finds.
  Rng rng(15);
  std::vector<double> durations;
  for (int i = 0; i < 3000; ++i) {
    durations.push_back(rng.NextGaussian(10.0, 0.2));
    durations.push_back(rng.NextGaussian(300.0, 6.0));
  }
  StreamingRootConfig config;
  StreamingRoot streaming(config, 31);
  for (double d : durations) streaming.Observe(d);
  const auto batch = RootCluster1D(durations, config.root);
  // Mode membership: population mass below/above the valley must agree.
  uint64_t stream_low = 0;
  for (const ClusterStats& c : streaming.Stats())
    if (c.mean < 100.0) stream_low += c.n;
  uint64_t batch_low = 0;
  for (const RootCluster& c : batch)
    if (c.stats.mean < 100.0) batch_low += c.stats.n;
  EXPECT_EQ(stream_low, batch_low);
}

// ---------------------------------------------------------------------------
// StreamingTraceClusterer: the per-kernel fan-out StreamTrace folds
// chunks into (DESIGN.md section 16).

/// A two-kernel trace whose durations form well-separated per-kernel
/// streams, deterministic in `seed`.
KernelTrace ClustererTrace(uint64_t seed, int n) {
  Rng rng(seed);
  KernelTrace trace("wl");
  const uint32_t a = trace.InternKernel("a");
  const uint32_t b = trace.InternKernel("b");
  for (int i = 0; i < n; ++i) {
    KernelInvocation inv;
    inv.kernel_id = (i % 3 == 0) ? b : a;
    inv.duration_us = inv.kernel_id == a ? rng.NextGaussian(10.0, 0.5)
                                         : rng.NextGaussian(200.0, 4.0);
    trace.Add(inv);
  }
  return trace;
}

void ExpectClusterersEqual(const StreamingTraceClusterer& x,
                           const StreamingTraceClusterer& y) {
  EXPECT_EQ(x.Observations(), y.Observations());
  EXPECT_EQ(x.TotalClusters(), y.TotalClusters());
  EXPECT_EQ(x.TotalSplits(), y.TotalSplits());
  EXPECT_EQ(x.TotalMerges(), y.TotalMerges());
  const auto sx = x.AllStats();
  const auto sy = y.AllStats();
  ASSERT_EQ(sx.size(), sy.size());
  for (size_t i = 0; i < sx.size(); ++i) {
    EXPECT_EQ(sx[i].n, sy[i].n);
    EXPECT_EQ(sx[i].mean, sy[i].mean);
    EXPECT_EQ(sx[i].stddev, sy[i].stddev);
  }
}

TEST(StreamingTraceClustererTest, ChunkSizeNeverChangesTheStructure) {
  // Feeding the same timeline in chunks of 1, 7, or all-at-once must
  // land on the identical structure: chunking is pacing, not modeling.
  const KernelTrace trace = ClustererTrace(3, 900);
  const StreamingRootConfig config;
  const auto invocations = trace.Invocations();
  StreamingTraceClusterer whole(config, trace, 42);
  whole.ObserveChunk(invocations);
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{256}}) {
    StreamingTraceClusterer chunked(config, trace, 42);
    for (size_t i = 0; i < invocations.size(); i += chunk)
      chunked.ObserveChunk(invocations.subspan(
          i, std::min(chunk, invocations.size() - i)));
    ExpectClusterersEqual(whole, chunked);
  }
}

TEST(StreamingTraceClustererTest, RoutesByKernelAndSkipsUnprofiled) {
  KernelTrace trace = ClustererTrace(5, 90);
  // Blank out every third duration: unprofiled invocations are skipped,
  // matching the service-session feed contract.
  size_t blanked = 0;
  for (auto& inv : trace.MutableInvocations())
    if (inv.seq % 3 == 2) {
      inv.duration_us = 0.0;
      ++blanked;
    }
  StreamingTraceClusterer clusterer({}, trace, 42);
  clusterer.ObserveChunk(trace.Invocations());
  EXPECT_EQ(clusterer.NumKernels(), 2u);
  EXPECT_EQ(clusterer.Observations(), trace.NumInvocations() - blanked);
  uint64_t routed = 0;
  for (size_t k = 0; k < clusterer.NumKernels(); ++k)
    for (const ClusterStats& c : clusterer.Root(k).Stats()) routed += c.n;
  EXPECT_EQ(routed, clusterer.Observations());
}

TEST(StreamingTraceClustererTest, ThrowsOnKernelIdOutsideHeader) {
  const KernelTrace trace = ClustererTrace(7, 10);
  StreamingTraceClusterer clusterer({}, trace, 42);
  KernelInvocation bad;
  bad.kernel_id = 99;
  bad.duration_us = 1.0;
  EXPECT_THROW(
      clusterer.ObserveChunk(std::span<const KernelInvocation>(&bad, 1)),
      std::out_of_range);
}

TEST(StreamingTraceClustererTest, BadChunkThrowsBeforeFoldingAnything) {
  // The whole chunk is validated before any kernel folds: a bad
  // invocation late in the chunk leaves the clusterer exactly as it was.
  const KernelTrace trace = ClustererTrace(11, 300);
  StreamingTraceClusterer clusterer({}, trace, 42);
  clusterer.ObserveChunk(trace.Invocations().subspan(0, 150));
  const uint64_t before = clusterer.Observations();
  const std::vector<ClusterStats> stats_before = clusterer.AllStats();

  std::vector<KernelInvocation> chunk(trace.Invocations().begin() + 150,
                                      trace.Invocations().end());
  chunk.back().kernel_id = 99;
  EXPECT_THROW(clusterer.ObserveChunk(chunk), std::out_of_range);
  chunk.back().kernel_id = 0;
  chunk.back().duration_us = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(clusterer.ObserveChunk(chunk), std::invalid_argument);

  EXPECT_EQ(clusterer.Observations(), before);
  const std::vector<ClusterStats> stats_after = clusterer.AllStats();
  ASSERT_EQ(stats_after.size(), stats_before.size());
  for (size_t i = 0; i < stats_after.size(); ++i) {
    EXPECT_EQ(stats_after[i].n, stats_before[i].n);
    EXPECT_EQ(stats_after[i].mean, stats_before[i].mean);
    EXPECT_EQ(stats_after[i].stddev, stats_before[i].stddev);
  }
}

/// Six kernels with two or three modes each and skewed shares, long
/// enough that reservoirs fill and kernels split and merge.
KernelTrace MultiKernelTrace(uint64_t seed, int n) {
  Rng rng(seed);
  KernelTrace trace("multi");
  std::vector<uint32_t> ids;
  for (const char* name : {"k0", "k1", "k2", "k3", "k4", "k5"})
    ids.push_back(trace.InternKernel(name));
  for (int i = 0; i < n; ++i) {
    KernelInvocation inv;
    const uint64_t pick = rng.NextBounded(21);  // kernel k has weight k+1
    uint32_t k = 0;
    for (uint64_t acc = 1; pick >= acc; acc += k + 1) ++k;
    inv.kernel_id = ids[k];
    const double base = 10.0 * static_cast<double>(k + 1);
    const double mode = base * static_cast<double>(1 + rng.NextBounded(3));
    inv.duration_us = rng.NextGaussian(mode, mode * 0.05);
    trace.Add(inv);
  }
  return trace;
}

/// Structure plus every core.* counter of one clusterer pass.
struct ClustererRun {
  std::vector<ClusterStats> stats;
  uint64_t splits = 0;
  uint64_t merges = 0;
  std::string counters;
};

ClustererRun RunClusterer(const KernelTrace& trace, int threads) {
  SetNumThreads(threads);
  telemetry::SetEnabled(true);
  telemetry::Reset();
  StreamingTraceClusterer clusterer({}, trace, 42);
  const auto invocations = trace.Invocations();
  for (size_t i = 0; i < invocations.size(); i += 1000)
    clusterer.ObserveChunk(
        invocations.subspan(i, std::min<size_t>(1000, invocations.size() - i)));
  ClustererRun run{clusterer.AllStats(), clusterer.TotalSplits(),
                   clusterer.TotalMerges(),
                   telemetry::Capture().CountersJson()};
  telemetry::SetEnabled(false);
  telemetry::Reset();
  SetNumThreads(0);
  return run;
}

TEST(StreamingTraceClustererTest, ThreadCountNeverChangesTheStructure) {
  // Kernels fold in parallel; each sees its own durations in timeline
  // order, so one thread and four land on the same structure and count
  // the same k-means and KKT work.
  const KernelTrace trace = MultiKernelTrace(21, 24000);
  const ClustererRun serial = RunClusterer(trace, 1);
  const ClustererRun parallel = RunClusterer(trace, 4);
  EXPECT_GT(serial.splits, 0u);
  EXPECT_NE(serial.counters.find("core.kmeans.runs"), std::string::npos);
  EXPECT_EQ(serial.counters, parallel.counters);
  EXPECT_EQ(serial.splits, parallel.splits);
  EXPECT_EQ(serial.merges, parallel.merges);
  ASSERT_EQ(serial.stats.size(), parallel.stats.size());
  for (size_t i = 0; i < serial.stats.size(); ++i) {
    EXPECT_EQ(serial.stats[i].n, parallel.stats[i].n);
    EXPECT_EQ(serial.stats[i].mean, parallel.stats[i].mean);
    EXPECT_EQ(serial.stats[i].stddev, parallel.stats[i].stddev);
  }
}

// ---------------------------------------------------------------------------
// eval::StreamTrace: chunk i + 1 is read while chunk i folds.

void ExpectStreamResultsEqual(const eval::StreamResult& x,
                              const eval::StreamResult& y) {
  EXPECT_EQ(x.invocations, y.invocations);
  EXPECT_EQ(x.chunks, y.chunks);
  EXPECT_EQ(x.total_duration_us, y.total_duration_us);
  EXPECT_EQ(x.durations.Count(), y.durations.Count());
  EXPECT_EQ(x.durations.Mean(), y.durations.Mean());
  EXPECT_EQ(x.durations.Variance(), y.durations.Variance());
  EXPECT_EQ(x.splits, y.splits);
  EXPECT_EQ(x.merges, y.merges);
  ASSERT_EQ(x.clusters.size(), y.clusters.size());
  for (size_t i = 0; i < x.clusters.size(); ++i) {
    EXPECT_EQ(x.clusters[i].n, y.clusters[i].n);
    EXPECT_EQ(x.clusters[i].mean, y.clusters[i].mean);
    EXPECT_EQ(x.clusters[i].stddev, y.clusters[i].stddev);
  }
}

TEST(StreamTraceReadAheadTest, FileStreamMatchesInMemoryStream) {
  const KernelTrace trace = MultiKernelTrace(23, 12000);
  const std::string path = testing::TempDir() + "/read_ahead.srtc";
  SpillTraceChunked(trace, path, 1024);
  const eval::StreamOptions options{.seed = 42};

  SetNumThreads(1);
  const eval::StreamResult memory =
      eval::StreamTrace(InMemoryChunkSource(trace, 1024), options);
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    const FileChunkSource file(path);
    ASSERT_EQ(file.NumChunks(), 12u);
    ExpectStreamResultsEqual(memory, eval::StreamTrace(file, options));
  }
  SetNumThreads(0);
  EXPECT_EQ(memory.invocations, trace.NumInvocations());
  EXPECT_EQ(memory.chunks, 12u);
  EXPECT_GT(memory.splits, 0u);
}

TEST(StreamTraceReadAheadTest, CorruptChunkStillThrows) {
  const KernelTrace trace = MultiKernelTrace(25, 6000);
  const std::string path = testing::TempDir() + "/read_ahead_corrupt.srtc";
  SpillTraceChunked(trace, path, 1024);
  uint64_t offset = 0;
  {
    const ChunkedTraceReader reader(path);
    offset = reader.Chunk(3).offset + 8;
  }
  {
    // Flip one payload byte of chunk 3: its digest no longer matches, and
    // the read-ahead lane that decodes it must surface the error.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(offset));
    file.put(static_cast<char>(byte ^ 0x5a));
  }
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    const FileChunkSource file(path);
    EXPECT_THROW(eval::StreamTrace(file, {.seed = 42}), std::runtime_error);
  }
  SetNumThreads(0);
}

TEST(StreamingTraceClustererTest, PerKernelSeedsAreDecorrelated) {
  // Different master seeds must produce independently-seeded per-kernel
  // roots, while the same seed reproduces the structure exactly.
  const KernelTrace trace = ClustererTrace(9, 600);
  StreamingTraceClusterer x({}, trace, 42);
  StreamingTraceClusterer y({}, trace, 42);
  x.ObserveChunk(trace.Invocations());
  y.ObserveChunk(trace.Invocations());
  ExpectClusterersEqual(x, y);
}

}  // namespace
}  // namespace stemroot::core
