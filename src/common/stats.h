/// \file
/// Descriptive statistics used throughout STEM+ROOT.
///
/// STEM's error model (paper Sec. 3.2) is built on the mean mu, standard
/// deviation sigma, and coefficient of variation sigma/mu of kernel
/// execution-time populations, so this module provides both batch
/// (SummaryStats::Of) and streaming (StreamingStats, Welford) computation,
/// plus the standard-normal machinery (z-scores) that converts a confidence
/// level 1 - alpha into the z_{1-alpha/2} factor of Eq. (2).

#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace stemroot {

/// Batch summary of a sample: count, mean, (population) variance, extremes.
///
/// We use the population variance (divide by n) rather than the Bessel
/// corrected sample variance: in ROOT the "sample" is in fact the entire
/// finite population of invocations in a cluster, whose spread is what
/// Eq. (3) consumes.
struct SummaryStats {
  size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  ///< population variance (divide by n)
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;

  /// Standard deviation, sqrt(variance).
  double Stddev() const;

  /// Coefficient of variation sigma/mu; 0 when the mean is 0.
  double Cov() const;

  /// Compute over a span of values. Returns a zeroed struct for empty input.
  static SummaryStats Of(std::span<const double> values);
};

/// Numerically stable streaming moments (Welford's algorithm). Suitable for
/// single-pass profiling over millions of kernel invocations.
class StreamingStats {
 public:
  /// Fold one observation into the accumulator.
  void Add(double x);

  /// Merge another accumulator (parallel reduction; Chan et al.).
  void Merge(const StreamingStats& other);

  /// Reconstruct an accumulator from population moments (count, mean,
  /// population variance) plus the observed range. Used by the streaming
  /// clusterer to synthesize children whose stats were estimated from a
  /// reservoir sample and scaled to the full population. Throws
  /// std::invalid_argument on negative variance or an inverted range.
  static StreamingStats FromMoments(size_t count, double mean,
                                    double variance, double min, double max);

  size_t Count() const { return count_; }
  double Mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance.
  double Variance() const { return count_ ? m2_ / static_cast<double>(count_) : 0.0; }
  double Stddev() const;
  double Cov() const;
  double Min() const { return min_; }
  double Max() const { return max_; }
  double Sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Standard normal CDF Phi(x).
double NormalCdf(double x);

/// Inverse standard normal CDF (quantile function); Acklam's rational
/// approximation refined with one Halley step, |error| < 1e-9.
/// Throws std::invalid_argument for p outside (0, 1).
double NormalQuantile(double p);

/// z_{1-alpha/2} for a two-sided confidence level 1 - alpha.
/// ZScore(0.95) == 1.95996... (the paper rounds to 1.96).
double ZScore(double confidence);

/// Percentile (linear interpolation, inclusive method) of a sample.
/// p in [0, 100]. The input need not be sorted. Throws on empty input.
double Percentile(std::span<const double> values, double p);

/// Arithmetic mean; 0 for empty input.
double Mean(std::span<const double> values);

/// Harmonic mean; used for averaging speedups per the paper (Sec. 5,
/// citing Eeckhout's "RIP geomean speedup"). Throws if any value <= 0.
double HarmonicMean(std::span<const double> values);

/// Median absolute deviation (scaled by 1.4826 to be consistent with the
/// standard deviation under normality). Robust spread estimate used by the
/// workload validators.
double Mad(std::span<const double> values);

}  // namespace stemroot
