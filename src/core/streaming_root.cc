#include "core/streaming_root.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <exception>
#include <numeric>
#include <stdexcept>

#include "common/parallel.h"
#include "core/kkt.h"
#include "core/kmeans.h"

namespace stemroot::core {

void StreamingRootConfig::Validate() const {
  root.Validate();
  if (reservoir_capacity < 8)
    throw std::invalid_argument(
        "StreamingRootConfig: reservoir_capacity must be >= 8");
  if (reservoir_capacity > 65536)
    throw std::invalid_argument(
        "StreamingRootConfig: reservoir_capacity must be <= 65536");
  if (min_split_observations < 2)
    throw std::invalid_argument(
        "StreamingRootConfig: min_split_observations must be >= 2");
  if (reassess_interval == 0)
    throw std::invalid_argument(
        "StreamingRootConfig: reassess_interval must be >= 1");
  if (max_clusters == 0)
    throw std::invalid_argument(
        "StreamingRootConfig: max_clusters must be >= 1");
}

ClusterStats StreamingRoot::Cluster::PopulationStats() const {
  ClusterStats out;
  out.n = stats.Count();
  out.mean = stats.Mean();
  out.stddev = stats.Stddev();
  return out;
}

namespace {

/// Orders reservoir slots by value, equal values by slot, so every slot
/// has one place in a cluster's order.
struct SlotLess {
  const std::vector<double>& reservoir;
  bool operator()(uint16_t a, uint16_t b) const {
    return reservoir[a] < reservoir[b] ||
           (reservoir[a] == reservoir[b] && a < b);
  }
};

}  // namespace

void StreamingRoot::Cluster::SortOrder() {
  order.resize(reservoir.size());
  std::iota(order.begin(), order.end(), uint16_t{0});
  std::sort(order.begin(), order.end(), SlotLess{reservoir});
}

StreamingRoot::StreamingRoot(const StreamingRootConfig& config, uint64_t seed)
    : config_(config), seed_(seed) {
  config_.Validate();
}

StreamingRoot::Cluster StreamingRoot::MakeCluster() {
  Cluster cluster;
  // Monotone uids keep reservoir streams unique across splits/merges: a
  // cluster born later (even at the same center) draws differently.
  cluster.rng = Rng(DeriveSeed(seed_, next_cluster_uid_++));
  return cluster;
}

void StreamingRoot::ObserveInto(Cluster& cluster, double duration_us) {
  cluster.stats.Add(duration_us);
  ++cluster.reservoir_seen;
  std::vector<uint16_t>& order = cluster.order;
  const SlotLess less{cluster.reservoir};
  if (cluster.reservoir.size() < config_.reservoir_capacity) {
    // The new slot is the highest, so it goes after its equal values.
    const auto slot = static_cast<uint16_t>(cluster.reservoir.size());
    cluster.reservoir.push_back(duration_us);
    order.insert(std::upper_bound(order.begin(), order.end(), slot, less),
                 slot);
    ++cluster.reservoir_version;
  } else {
    // Algorithm R: replace a random slot with probability cap/seen, so the
    // reservoir stays a uniform sample of everything this cluster saw.
    const uint64_t j = cluster.rng.NextBounded(cluster.reservoir_seen);
    if (j < cluster.reservoir.size()) {
      const auto slot = static_cast<uint16_t>(j);
      order.erase(std::lower_bound(order.begin(), order.end(), slot, less));
      cluster.reservoir[slot] = duration_us;
      order.insert(std::lower_bound(order.begin(), order.end(), slot, less),
                   slot);
      ++cluster.reservoir_version;
    }
  }
}

void StreamingRoot::Observe(double duration_us) {
  if (!(duration_us > 0.0))
    throw std::invalid_argument(
        "StreamingRoot::Observe: duration must be positive (profiled)");
  ++observations_;
  if (clusters_.empty()) {
    clusters_.push_back(MakeCluster());
    ObserveInto(clusters_.front(), duration_us);
    return;
  }
  // Nearest center by running mean. Clusters are kept sorted by center, so
  // a binary search would do; populations hold a handful of clusters and
  // the linear scan is branch-predictable.
  size_t best = 0;
  double best_distance = std::abs(duration_us - clusters_[0].Center());
  for (size_t i = 1; i < clusters_.size(); ++i) {
    const double distance = std::abs(duration_us - clusters_[i].Center());
    if (distance < best_distance) {
      best = i;
      best_distance = distance;
    }
  }
  ObserveInto(clusters_[best], duration_us);
  if (++since_reassess_ >= config_.reassess_interval) {
    since_reassess_ = 0;
    Reassess();
  }
}

void StreamingRoot::Reassess() {
  const double z = config_.root.stem.Z();
  // Split pass: examine each current cluster once (newly created children
  // wait for the next pass -- their stats are still the parent's guess).
  const size_t current = clusters_.size();
  size_t index = 0;
  for (size_t examined = 0; examined < current && index < clusters_.size();
       ++examined) {
    if (!TrySplit(index, z)) ++index;
    // On a split, the two children replace the parent at `index`; skip
    // both (they inherit a freshly partitioned reservoir).
    else index += 2;
  }
  TryMerges(z);
  std::sort(clusters_.begin(), clusters_.end(),
            [](const Cluster& a, const Cluster& b) {
              return a.Center() < b.Center();
            });
}

namespace {

/// Split `reservoir` into its lower and upper halves, keeping slot order.
void Partition(const std::vector<double>& reservoir,
               const std::vector<bool>& in_low, std::vector<double>& low,
               std::vector<double>& high) {
  for (size_t i = 0; i < reservoir.size(); ++i)
    (in_low[i] ? low : high).push_back(reservoir[i]);
}

}  // namespace

const StreamingRoot::SplitProbe& StreamingRoot::Probe(Cluster& cluster) {
  // Once a reservoir is full, a new member replaces a slot only with
  // probability cap/seen, so most reassessments find it unchanged and
  // reuse the last partition instead of re-running k-means.
  if (cluster.probe && cluster.probe->version == cluster.reservoir_version)
    return *cluster.probe;
  const std::vector<double>& reservoir = cluster.reservoir;
  const KmeansResult split = Kmeans1D(reservoir, cluster.order, 2);
  const uint32_t low_label = split.centers[0] > split.centers[1] ? 1 : 0;
  SplitProbe probe;
  probe.version = cluster.reservoir_version;
  probe.in_low.resize(reservoir.size());
  // The stats ClusterStats::Of gives each half, in one pass. A center
  // with members is its half's slot-order sum over its count, which is
  // that half's mean; the squared deviations add in slot order too.
  uint64_t counts[2] = {0, 0};
  double m2[2] = {0.0, 0.0};
  for (size_t i = 0; i < reservoir.size(); ++i) {
    const uint32_t label = split.assignment[i];
    probe.in_low[i] = label == low_label;
    const double d = reservoir[i] - split.centers[label];
    m2[label] += d * d;
    ++counts[label];
  }
  probe.low_count = counts[low_label];
  if (counts[0] > 0 && counts[1] > 0) {
    const auto half = [&](uint32_t label) {
      ClusterStats stats;
      stats.n = counts[label];
      stats.mean = split.centers[label];
      stats.stddev = std::sqrt(m2[label] / static_cast<double>(stats.n));
      return stats;
    };
    probe.low_stats = half(low_label);
    probe.high_stats = half(1 - low_label);
  }
  return cluster.probe.emplace(std::move(probe));
}

bool StreamingRoot::TrySplit(size_t index, double z) {
  Cluster& cluster = clusters_[index];
  const ClusterStats parent = cluster.PopulationStats();
  if (clusters_.size() >= config_.max_clusters) return false;
  if (cluster.reservoir.size() < config_.min_split_observations) return false;
  if (parent.n < config_.root.min_split_size) return false;
  if (parent.stddev <= 0.0) return false;

  const SplitProbe& probe = Probe(cluster);
  if (probe.low_count == 0 || probe.low_count == cluster.reservoir.size())
    return false;

  // Scale reservoir-sample stats up to the full population: child sizes
  // proportional to the reservoir partition, remainders to the low child.
  const double fraction =
      static_cast<double>(probe.low_count) /
      static_cast<double>(cluster.reservoir.size());
  const uint64_t n_low = std::min<uint64_t>(
      parent.n - 1,
      std::max<uint64_t>(
          1, static_cast<uint64_t>(
                 std::llround(fraction * static_cast<double>(parent.n)))));
  const uint64_t n_high = parent.n - n_low;

  ClusterStats stats_low = probe.low_stats;
  ClusterStats stats_high = probe.high_stats;
  stats_low.n = n_low;
  stats_high.n = n_high;

  // Batch ROOT's acceptance rule (Eq. 7 vs Eq. 8) on the scaled children.
  const uint64_t m_old =
      SingleClusterSampleSize(parent, config_.root.stem, z);
  const double tau_old = static_cast<double>(m_old) * parent.mean;
  const ClusterStats children[] = {stats_low, stats_high};
  const double tau_new = SolveKkt(children, config_.root.stem, z).cost_us;
  if (tau_new >= tau_old) return false;

  // Rebuild the two children with Welford state synthesized from the
  // scaled sample stats; ranges come from the reservoir partitions.
  std::vector<double> low, high;
  Partition(cluster.reservoir, probe.in_low, low, high);
  const auto [low_min, low_max] = std::minmax_element(low.begin(), low.end());
  const auto [high_min, high_max] =
      std::minmax_element(high.begin(), high.end());
  // Fresh clusters carry no probe: their first reassessment partitions
  // their own (new) reservoirs.
  Cluster child_low = MakeCluster();
  Cluster child_high = MakeCluster();
  child_low.stats = StreamingStats::FromMoments(
      n_low, stats_low.mean, stats_low.stddev * stats_low.stddev, *low_min,
      *low_max);
  child_high.stats = StreamingStats::FromMoments(
      n_high, stats_high.mean, stats_high.stddev * stats_high.stddev,
      *high_min, *high_max);
  child_low.reservoir = std::move(low);
  child_high.reservoir = std::move(high);
  child_low.reservoir_seen = n_low;
  child_high.reservoir_seen = n_high;
  child_low.SortOrder();
  child_high.SortOrder();

  clusters_[index] = std::move(child_low);
  clusters_.insert(clusters_.begin() + static_cast<ptrdiff_t>(index) + 1,
                   std::move(child_high));
  ++splits_;
  return true;
}

void StreamingRoot::TryMerges(double z) {
  if (clusters_.size() < 2) return;
  std::sort(clusters_.begin(), clusters_.end(),
            [](const Cluster& a, const Cluster& b) {
              return a.Center() < b.Center();
            });
  for (size_t i = 0; i + 1 < clusters_.size();) {
    const ClusterStats a = clusters_[i].PopulationStats();
    const ClusterStats b = clusters_[i + 1].PopulationStats();
    if (a.n == 0 || b.n == 0) {
      ++i;
      continue;
    }
    StreamingStats merged_stats = clusters_[i].stats;
    merged_stats.Merge(clusters_[i + 1].stats);
    ClusterStats merged;
    merged.n = merged_stats.Count();
    merged.mean = merged_stats.Mean();
    merged.stddev = merged_stats.Stddev();

    // Inverse of the split rule: keep the pair separate only while the
    // KKT-sized pair predicts a strictly cheaper simulation than the
    // Eq. 3-sized union.
    const uint64_t m_merged =
        SingleClusterSampleSize(merged, config_.root.stem, z);
    const double tau_merged = static_cast<double>(m_merged) * merged.mean;
    const ClusterStats pair[] = {a, b};
    const double tau_pair = SolveKkt(pair, config_.root.stem, z).cost_us;
    if (tau_pair < tau_merged) {
      ++i;
      continue;
    }

    Cluster union_cluster = MakeCluster();
    union_cluster.stats = merged_stats;
    union_cluster.reservoir = std::move(clusters_[i].reservoir);
    union_cluster.reservoir.insert(union_cluster.reservoir.end(),
                                   clusters_[i + 1].reservoir.begin(),
                                   clusters_[i + 1].reservoir.end());
    // Downsample deterministically back to capacity (partial Fisher-Yates
    // keeps the kept prefix a uniform sample of the union).
    if (union_cluster.reservoir.size() > config_.reservoir_capacity) {
      std::vector<double>& r = union_cluster.reservoir;
      for (size_t k = 0; k < config_.reservoir_capacity; ++k) {
        const uint64_t pick =
            k + union_cluster.rng.NextBounded(r.size() - k);
        std::swap(r[k], r[static_cast<size_t>(pick)]);
      }
      r.resize(config_.reservoir_capacity);
    }
    union_cluster.reservoir_seen = merged.n;
    union_cluster.SortOrder();
    clusters_[i] = std::move(union_cluster);
    clusters_.erase(clusters_.begin() + static_cast<ptrdiff_t>(i) + 1);
    ++merges_;
    // Re-examine the union against its new right neighbour.
  }
}

std::vector<ClusterStats> StreamingRoot::Stats() const {
  std::vector<ClusterStats> out;
  out.reserve(clusters_.size());
  for (const Cluster& cluster : clusters_)
    out.push_back(cluster.PopulationStats());
  std::sort(out.begin(), out.end(),
            [](const ClusterStats& a, const ClusterStats& b) {
              return a.mean < b.mean;
            });
  return out;
}

StreamingTraceClusterer::StreamingTraceClusterer(
    const StreamingRootConfig& config, const KernelTrace& header,
    uint64_t seed) {
  roots_.reserve(header.NumKernelTypes());
  for (uint32_t k = 0; k < header.NumKernelTypes(); ++k)
    roots_.emplace_back(config, DeriveSeed(seed, k));
}

void StreamingTraceClusterer::ObserveChunk(
    std::span<const KernelInvocation> chunk) {
  BucketChunk(chunk, buckets_);
  ObserveBuckets(buckets_);
}

void StreamingTraceClusterer::BucketChunk(
    std::span<const KernelInvocation> chunk, Buckets& buckets) const {
  buckets.resize(roots_.size());
  for (std::vector<double>& bucket : buckets) bucket.clear();
  for (const KernelInvocation& inv : chunk) {
    if (inv.duration_us <= 0.0) continue;
    if (inv.kernel_id >= roots_.size())
      throw std::out_of_range(
          "StreamingTraceClusterer: kernel_id outside the header table");
    if (!(inv.duration_us > 0.0))
      throw std::invalid_argument(
          "StreamingTraceClusterer: duration must be positive (profiled)");
    buckets[inv.kernel_id].push_back(inv.duration_us);
  }
}

void StreamingTraceClusterer::ObserveBuckets(
    const Buckets& buckets, const std::function<void()>& alongside) {
  assert(buckets.size() == roots_.size());  // as BucketChunk sized them
  // Kernels are independent (own seed, own durations), so the schedule is
  // unobservable. Grain 1: one lane per claim, since kernel costs are
  // skewed. `alongside` is claimed first so it never ends after the
  // kernels, then the largest buckets, so no heavy kernel starts late.
  std::vector<size_t> by_size;
  uint64_t folded = 0;
  for (size_t k = 0; k < buckets.size(); ++k) {
    if (buckets[k].empty()) continue;
    by_size.push_back(k);
    folded += buckets[k].size();
  }
  std::stable_sort(by_size.begin(), by_size.end(), [&](size_t a, size_t b) {
    return buckets[a].size() > buckets[b].size();
  });
  const size_t first_kernel = alongside ? 1 : 0;
  std::exception_ptr alongside_error;
  ParallelFor(
      0, first_kernel + by_size.size(),
      [&](size_t lane) {
        if (lane >= first_kernel) {
          const size_t k = by_size[lane - first_kernel];
          for (double duration_us : buckets[k])
            roots_[k].Observe(duration_us);
          return;
        }
        try {
          alongside();
        } catch (...) {
          alongside_error = std::current_exception();
        }
      },
      1);
  observations_ += folded;
  if (alongside_error) std::rethrow_exception(alongside_error);
}

size_t StreamingTraceClusterer::TotalClusters() const {
  size_t total = 0;
  for (const StreamingRoot& root : roots_) total += root.NumClusters();
  return total;
}

uint64_t StreamingTraceClusterer::TotalSplits() const {
  uint64_t total = 0;
  for (const StreamingRoot& root : roots_) total += root.NumSplits();
  return total;
}

uint64_t StreamingTraceClusterer::TotalMerges() const {
  uint64_t total = 0;
  for (const StreamingRoot& root : roots_) total += root.NumMerges();
  return total;
}

std::vector<ClusterStats> StreamingTraceClusterer::AllStats() const {
  std::vector<ClusterStats> out;
  for (const StreamingRoot& root : roots_) {
    // Skip kernels that never observed a duration (zero clusters or a
    // single empty seed cluster contributes nothing).
    for (const ClusterStats& s : root.Stats())
      if (s.n > 0) out.push_back(s);
  }
  return out;
}

}  // namespace stemroot::core
