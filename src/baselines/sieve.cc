#include "baselines/sieve.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "common/rng.h"
#include "common/stats.h"
#include "common/telemetry.h"

namespace stemroot::baselines {

SieveSampler::SieveSampler(SieveConfig config) : config_(config) {
  if (config_.stable_cov < 0 || config_.variable_cov <= config_.stable_cov)
    throw std::invalid_argument("SieveSampler: bad CoV thresholds");
  if (config_.kde_bins < 4)
    throw std::invalid_argument("SieveSampler: kde_bins too small");
}

std::string SieveSampler::Name() const {
  return config_.random_representative ? "Sieve(random-rep)" : "Sieve";
}

namespace {

/// Split invocation indices into KDE modes over log instruction counts:
/// histogram + smoothing, cut at interior minima between modes.
std::vector<std::vector<uint32_t>> KdeModes(
    const KernelTrace& trace, const std::vector<uint32_t>& members,
    size_t bins) {
  std::vector<double> log_instrs(members.size());
  double lo = 1e300;
  double hi = -1e300;
  for (size_t i = 0; i < members.size(); ++i) {
    log_instrs[i] = std::log2(static_cast<double>(std::max<uint64_t>(
        1, trace.At(members[i]).behavior.instructions)));
    lo = std::min(lo, log_instrs[i]);
    hi = std::max(hi, log_instrs[i]);
  }
  if (hi - lo < 1e-9) return {members};

  // Smoothed histogram ~ Gaussian KDE with bandwidth ~ bin width.
  const double width = (hi - lo) / static_cast<double>(bins);
  std::vector<double> density(bins, 0.0);
  for (double v : log_instrs) {
    const double center = (v - lo) / width;
    for (ptrdiff_t b = static_cast<ptrdiff_t>(center) - 4;
         b <= static_cast<ptrdiff_t>(center) + 4; ++b) {
      if (b < 0 || b >= static_cast<ptrdiff_t>(bins)) continue;
      const double d = (center - (static_cast<double>(b) + 0.5)) / 1.5;
      density[static_cast<size_t>(b)] += std::exp(-0.5 * d * d);
    }
  }

  // Cut points: interior local minima below half the smaller neighbour
  // peak.
  std::vector<double> cuts;
  double left_peak = density[0];
  for (size_t b = 1; b + 1 < bins; ++b) {
    left_peak = std::max(left_peak, density[b - 1]);
    if (density[b] < density[b - 1] && density[b] <= density[b + 1]) {
      double right_peak = 0.0;
      for (size_t j = b + 1; j < bins; ++j)
        right_peak = std::max(right_peak, density[j]);
      if (density[b] < 0.4 * std::min(left_peak, right_peak)) {
        cuts.push_back(lo + (static_cast<double>(b) + 0.5) * width);
        left_peak = 0.0;
      }
    }
  }
  if (cuts.empty()) return {members};

  std::vector<std::vector<uint32_t>> modes(cuts.size() + 1);
  for (size_t i = 0; i < members.size(); ++i) {
    const size_t mode = static_cast<size_t>(
        std::upper_bound(cuts.begin(), cuts.end(), log_instrs[i]) -
        cuts.begin());
    modes[mode].push_back(members[i]);
  }
  std::erase_if(modes, [](const auto& m) { return m.empty(); });
  return modes;
}

/// First-chronological member among those with the dominant CTA size
/// (Sieve's published representative rule).
uint32_t DominantCtaRep(const KernelTrace& trace,
                        const std::vector<uint32_t>& members) {
  std::map<uint32_t, uint64_t> cta_counts;
  for (uint32_t idx : members)
    ++cta_counts[trace.At(idx).launch.ThreadsPerCta()];
  uint32_t dominant = 0;
  uint64_t best = 0;
  for (const auto& [cta, count] : cta_counts) {
    if (count > best) {
      best = count;
      dominant = cta;
    }
  }
  for (uint32_t idx : members)
    if (trace.At(idx).launch.ThreadsPerCta() == dominant) return idx;
  return members.front();
}

}  // namespace

core::SamplingPlan SieveSampler::BuildPlan(const KernelTrace& trace,
                                           uint64_t seed) const {
  if (trace.Empty()) throw std::invalid_argument("SieveSampler: empty trace");

  core::SamplingPlan plan;
  plan.method = Name();
  Rng rng(DeriveSeed(seed, 0x534945564UL));

  auto emit = [&](const std::vector<uint32_t>& members) {
    if (members.empty()) return;
    ++plan.num_clusters;
    const uint32_t rep =
        config_.random_representative
            ? members[rng.NextBounded(members.size())]
            : DominantCtaRep(trace, members);
    plan.entries.push_back({rep, static_cast<double>(members.size())});
  };

  for (const auto& group : trace.GroupByKernel()) {
    if (group.empty()) continue;
    std::vector<double> instrs(group.size());
    for (size_t i = 0; i < group.size(); ++i)
      instrs[i] =
          static_cast<double>(trace.At(group[i]).behavior.instructions);
    const double cov = SummaryStats::Of(instrs).Cov();

    if (cov <= config_.stable_cov || !config_.use_kde) {
      // Stratum 1 (stable) -- or KDE disabled: one sample per kernel name.
      emit(group);
    } else {
      // Strata 2/3: subdivide by instruction-count modes, one sample per
      // mode; highly variable kernels (stratum 3) get a finer-grained KDE.
      const size_t bins = cov > config_.variable_cov ? config_.kde_bins * 2
                                                     : config_.kde_bins;
      for (const auto& mode : KdeModes(trace, group, bins)) emit(mode);
    }
  }
  telemetry::Count("baselines.sieve.plans");
  telemetry::Record("baselines.sieve.strata_per_plan",
                    static_cast<double>(plan.num_clusters));
  return plan;
}

}  // namespace stemroot::baselines
