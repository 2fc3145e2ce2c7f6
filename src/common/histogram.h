/// \file
/// Fixed-bin histograms plus peak detection, and a log-bucketed
/// concurrent histogram for latency quantiles.
///
/// Execution-time histograms are the paper's central diagnostic (Fig. 1):
/// multi-peak histograms signal a kernel used in several runtime contexts,
/// wide single peaks signal memory-bound jitter. Histogram supports ASCII
/// rendering (for the fig01 bench) and a smoothed-mode peak counter used by
/// the workload validators and by tests that assert the generators really do
/// produce the documented shapes.
///
/// LogHistogram is the live-introspection counterpart (DESIGN.md §14):
/// geometric buckets spanning many decades, lock-free Record() via relaxed
/// atomics, and nearest-rank quantile readout (p50/p90/p99) over the
/// bucket counts — the per-request latency distribution behind the
/// service's `stats` verb, its one reader.

#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace stemroot {

/// Equal-width histogram over [lo, hi] with a fixed number of bins.
class Histogram {
 public:
  /// Build with explicit bounds. Throws if bins == 0 or hi <= lo.
  Histogram(double lo, double hi, size_t bins);

  /// Build with bounds spanning the data (padded by half a bin so extremes
  /// fall strictly inside). Throws on empty data or bins == 0.
  static Histogram FromData(std::span<const double> values, size_t bins);

  /// Insert one observation; values outside [lo, hi] clamp to edge bins.
  void Add(double x);

  size_t NumBins() const { return counts_.size(); }
  double Lo() const { return lo_; }
  double Hi() const { return hi_; }
  double BinWidth() const { return width_; }
  uint64_t Count(size_t bin) const { return counts_.at(bin); }
  uint64_t TotalCount() const { return total_; }

  /// Center of a bin.
  double BinCenter(size_t bin) const;

  /// Counts vector (bin order).
  const std::vector<uint64_t>& Counts() const { return counts_; }

  /// Number of local maxima after moving-average smoothing, ignoring modes
  /// shorter than min_prominence_frac * max_count. This is the "how many
  /// performance peaks does this kernel have" question from Fig. 1/2.
  size_t CountPeaks(double min_prominence_frac = 0.05,
                    size_t smooth_radius = 1) const;

  /// Render a horizontal ASCII bar chart (one row per bin) of at most
  /// max_width characters per bar; used by the fig01 bench and examples.
  std::string Render(size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

/// Log-bucketed histogram for positive, long-tailed values (request
/// latencies in microseconds). Bucket 0 is the underflow bin [0, lo);
/// bucket i (1 <= i <= bins-2) covers [lo*growth^(i-1), lo*growth^i); the
/// last bucket is the overflow bin. Record() is wait-free (one relaxed
/// fetch_add per bucket plus CAS loops for sum/max), so concurrent server
/// threads record without a lock and a reader (the `stats` verb) sees a
/// consistent-enough view mid-run. Counts never decrease, so successive
/// `stats` replies report monotone totals.
///
/// Quantiles are nearest-rank over the bucket counts: the reported value
/// is the upper bound of the bucket holding the rank (an overestimate by
/// at most one growth factor), except the overflow bucket, which reports
/// the exact maximum ever recorded. An empty histogram reports 0 for
/// every statistic.
class LogHistogram {
 public:
  /// Defaults span [1us, 1us * 1.5^48 ~= 1.6e8us ~= 160s) in ~50%-wide
  /// buckets — request latencies from sub-microsecond to minutes.
  explicit LogHistogram(double lo = 1.0, double growth = 1.5,
                        size_t bins = 50);

  /// Record one observation. Negative, NaN, and infinite values are
  /// dropped (counted in DroppedCount) so a bad clock can never poison
  /// the quantiles.
  void Record(double value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t DroppedCount() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  double Sum() const;
  double Max() const;  ///< exact maximum recorded; 0 when empty
  double Mean() const;

  /// Nearest-rank quantile (q in [0, 1]); see the class comment for the
  /// bucket-bound semantics. q >= 1 reports Max().
  double Quantile(double q) const;

  size_t NumBins() const { return counts_.size(); }
  /// Upper bound of bucket `bin` (inclusive range end for readout); the
  /// overflow bucket reports +inf.
  double BinUpperBound(size_t bin) const;
  /// Relaxed-atomic read of one bucket count.
  uint64_t BinCount(size_t bin) const;
  /// Copy of all bucket counts (one relaxed load per bucket).
  std::vector<uint64_t> Snapshot() const;

 private:
  size_t BucketIndex(double value) const;

  double lo_;
  double log_growth_;  ///< ln(growth), precomputed for BucketIndex
  double growth_;
  std::vector<std::atomic<uint64_t>> counts_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> sum_bits_{0};  ///< double bit pattern, CAS-updated
  std::atomic<uint64_t> max_bits_{0};  ///< double bit pattern, CAS-updated
};

}  // namespace stemroot
