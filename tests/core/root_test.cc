#include "core/root.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>

#include "common/rng.h"
#include "core/kkt.h"
#include "core/kmeans.h"

namespace stemroot::core {
namespace {

std::vector<double> BimodalDurations(size_t per_mode, Rng& rng) {
  std::vector<double> durations;
  for (size_t i = 0; i < per_mode; ++i)
    durations.push_back(rng.NextGaussian(20.0, 0.6));
  for (size_t i = 0; i < per_mode; ++i)
    durations.push_back(rng.NextGaussian(200.0, 5.0));
  return durations;
}

/// Cluster positions 0..durations.size()-1.
std::vector<RootCluster> ClusterPositions(std::span<const double> durations,
                                          const RootConfig& config) {
  std::vector<uint32_t> indices(durations.size());
  std::iota(indices.begin(), indices.end(), 0u);
  return RootCluster1D(durations, indices, config);
}

TEST(RootConfigTest, Validation) {
  RootConfig config;
  EXPECT_NO_THROW(config.Validate());
  config.branch_k = 1;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = RootConfig{};
  config.min_split_size = 1;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = RootConfig{};
  config.max_depth = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
}

TEST(RootTest, SplitsBimodalPopulation) {
  Rng rng(3);
  const auto durations = BimodalDurations(2000, rng);
  const auto clusters = ClusterPositions(durations, RootConfig{});
  ASSERT_GE(clusters.size(), 2u);

  // Each final cluster must be unimodal-ish: no cluster spans both modes.
  for (const RootCluster& c : clusters) {
    EXPECT_TRUE(c.stats.mean < 100.0 || c.stats.mean > 100.0);
    for (uint32_t idx : c.members) {
      const bool low_mode = durations[idx] < 100.0;
      EXPECT_EQ(low_mode, c.stats.mean < 100.0);
    }
  }
}

TEST(RootTest, DoesNotSplitNarrowUnimodal) {
  Rng rng(5);
  std::vector<double> durations;
  for (int i = 0; i < 5000; ++i)
    durations.push_back(rng.NextGaussian(100.0, 1.0));
  const auto clusters = ClusterPositions(durations, RootConfig{});
  // A 1% CoV population needs no splitting: Eq. (3) already gives m ~ 1.
  EXPECT_LE(clusters.size(), 2u);
}

TEST(RootTest, PartitionIsExactAndDisjoint) {
  Rng rng(7);
  std::vector<double> durations;
  for (int i = 0; i < 3000; ++i)
    durations.push_back(rng.NextLogNormal(3.0, 0.8));
  const auto clusters = ClusterPositions(durations, RootConfig{});

  std::set<uint32_t> seen;
  for (const RootCluster& c : clusters) {
    EXPECT_EQ(c.members.size(), c.stats.n);
    for (uint32_t idx : c.members) {
      EXPECT_TRUE(seen.insert(idx).second) << "duplicate member " << idx;
      EXPECT_LT(idx, durations.size());
    }
  }
  EXPECT_EQ(seen.size(), durations.size());
}

TEST(RootTest, SplittingReducesPredictedCost) {
  // The accepted hierarchy must never predict a higher simulated time
  // than treating the kernel as one cluster (Eqs. 7/8).
  Rng rng(9);
  const auto durations = BimodalDurations(3000, rng);
  RootConfig config;

  const ClusterStats whole = ClusterStats::Of(durations);
  const double tau_old = static_cast<double>(SingleClusterSampleSize(
                             whole, config.stem)) * whole.mean;

  const auto clusters = ClusterPositions(durations, config);
  std::vector<ClusterStats> stats;
  for (const auto& c : clusters) stats.push_back(c.stats);
  const double tau_new = SolveKkt(stats, config.stem).cost_us;
  EXPECT_LT(tau_new, tau_old);
}

TEST(RootTest, ThreePeaksYieldAtLeastThreeClusters) {
  // The bn_fw_inf case from Fig. 1: three separated peaks.
  Rng rng(11);
  std::vector<double> durations;
  for (double mode : {15.0, 40.0, 95.0})
    for (int i = 0; i < 4000; ++i)
      durations.push_back(rng.NextGaussian(mode, mode * 0.02));
  const auto clusters = ClusterPositions(durations, RootConfig{});
  EXPECT_GE(clusters.size(), 3u);
}

TEST(RootTest, RespectsMinSplitSize) {
  Rng rng(13);
  auto durations = BimodalDurations(3, rng);  // 6 points total
  RootConfig config;
  config.min_split_size = 100;
  const auto clusters = ClusterPositions(durations, config);
  EXPECT_EQ(clusters.size(), 1u);
}

TEST(RootTest, RespectsMaxDepth) {
  Rng rng(15);
  std::vector<double> durations;
  for (int i = 0; i < 10000; ++i)
    durations.push_back(rng.NextLogNormal(2.0, 1.5));
  RootConfig config;
  config.max_depth = 1;
  const auto clusters = ClusterPositions(durations, config);
  EXPECT_LE(clusters.size(), 2u);
  for (const auto& c : clusters) EXPECT_LE(c.depth, 1u);
}

TEST(RootTest, ExternalIndicesArePreserved) {
  Rng rng(17);
  const auto durations = BimodalDurations(500, rng);
  std::vector<uint32_t> indices(durations.size());
  for (size_t i = 0; i < indices.size(); ++i)
    indices[i] = static_cast<uint32_t>(i) * 3 + 7;  // arbitrary mapping
  const auto clusters = RootCluster1D(durations, indices, RootConfig{});
  size_t total = 0;
  for (const auto& c : clusters) {
    for (uint32_t idx : c.members) EXPECT_EQ((idx - 7) % 3, 0u);
    total += c.members.size();
  }
  EXPECT_EQ(total, durations.size());
}

TEST(RootTest, EmptyInputYieldsNoClusters) {
  EXPECT_TRUE(ClusterPositions({}, RootConfig{}).empty());
}

TEST(RootTest, ArityMismatchThrows) {
  const std::vector<double> durations = {1.0, 2.0};
  const std::vector<uint32_t> indices = {0};
  EXPECT_THROW(RootCluster1D(durations, indices, RootConfig{}),
               std::invalid_argument);
}

TEST(RootTest, HigherBranchingAlsoWorks) {
  // Paper: "any number above 2 works well".
  Rng rng(19);
  const auto durations = BimodalDurations(2000, rng);
  RootConfig config;
  config.branch_k = 4;
  const auto clusters = ClusterPositions(durations, config);
  std::set<uint32_t> seen;
  for (const auto& c : clusters)
    for (uint32_t idx : c.members) seen.insert(idx);
  EXPECT_EQ(seen.size(), durations.size());
}

/// ROOT's recursion as written before it moved its input arrays and
/// reserved its children: copies and push_back growth, same split rule.
void ReferenceRecurse(const std::vector<double>& values,
                      const std::vector<uint32_t>& members, uint32_t depth,
                      const RootConfig& config,
                      std::vector<RootCluster>& out) {
  RootCluster cluster;
  cluster.stats = ClusterStats::Of(values);
  cluster.depth = depth;
  cluster.members = members;
  if (values.size() < config.min_split_size || depth >= config.max_depth ||
      cluster.stats.stddev <= 0.0) {
    out.push_back(cluster);
    return;
  }
  const KmeansResult split = Kmeans1D(values, config.branch_k);
  std::vector<std::vector<double>> child_values(config.branch_k);
  std::vector<std::vector<uint32_t>> child_members(config.branch_k);
  for (size_t i = 0; i < values.size(); ++i) {
    child_values[split.assignment[i]].push_back(values[i]);
    child_members[split.assignment[i]].push_back(members[i]);
  }
  std::vector<ClusterStats> child_stats;
  for (const auto& v : child_values) {
    if (v.empty()) {
      out.push_back(cluster);
      return;
    }
    child_stats.push_back(ClusterStats::Of(v));
  }
  const double tau_old =
      static_cast<double>(SingleClusterSampleSize(cluster.stats,
                                                  config.stem)) *
      cluster.stats.mean;
  if (SolveKkt(child_stats, config.stem).cost_us >= tau_old) {
    out.push_back(cluster);
    return;
  }
  for (uint32_t c = 0; c < config.branch_k; ++c)
    ReferenceRecurse(child_values[c], child_members[c], depth + 1, config,
                     out);
}

TEST(RootTest, ChainShapedPopulationMatchesReferenceRecursion) {
  // A large log-normal body plus two far modes of ~0.6% each, interleaved:
  // the split chain of gpt2's largest kernel, where each accepted split
  // peels one small mode off the body.
  Rng rng(21);
  std::vector<double> durations;
  std::vector<uint32_t> indices;
  for (uint32_t i = 0; i < 40000; ++i) {
    const uint64_t draw = rng.NextBounded(1000);
    durations.push_back(draw < 6    ? rng.NextLogNormal(5.5, 0.02)
                        : draw < 12 ? rng.NextLogNormal(4.4, 0.02)
                                    : rng.NextLogNormal(3.0, 0.2));
    indices.push_back(i * 2 + 1);
  }
  const RootConfig config;
  std::vector<RootCluster> want;
  ReferenceRecurse(durations, indices, 0, config, want);
  ASSERT_GE(want.size(), 3u) << "input no longer splits into a chain";

  for (const auto& got : {RootCluster1D(durations, indices, config),
                          RootCluster1D(std::vector<double>(durations),
                                        std::vector<uint32_t>(indices),
                                        config)}) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t c = 0; c < want.size(); ++c) {
      EXPECT_EQ(got[c].members, want[c].members) << "cluster " << c;
      EXPECT_EQ(got[c].depth, want[c].depth) << "cluster " << c;
      EXPECT_EQ(got[c].stats.n, want[c].stats.n) << "cluster " << c;
      EXPECT_EQ(std::memcmp(&got[c].stats.mean, &want[c].stats.mean,
                            sizeof(double)),
                0)
          << "cluster " << c;
      EXPECT_EQ(std::memcmp(&got[c].stats.stddev, &want[c].stats.stddev,
                            sizeof(double)),
                0)
          << "cluster " << c;
    }
  }
}

}  // namespace
}  // namespace stemroot::core
