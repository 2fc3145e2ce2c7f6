#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace stemroot {

double SummaryStats::Stddev() const { return std::sqrt(variance); }

double SummaryStats::Cov() const {
  return mean != 0.0 ? Stddev() / mean : 0.0;
}

SummaryStats SummaryStats::Of(std::span<const double> values) {
  SummaryStats s;
  if (values.empty()) return s;
  s.count = values.size();
  s.min = values.front();
  s.max = values.front();
  double sum = 0.0;
  for (double v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.sum = sum;
  s.mean = sum / static_cast<double>(s.count);
  double m2 = 0.0;
  for (double v : values) {
    const double d = v - s.mean;
    m2 += d * d;
  }
  s.variance = m2 / static_cast<double>(s.count);
  return s;
}

void StreamingStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void StreamingStats::Merge(const StreamingStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

StreamingStats StreamingStats::FromMoments(size_t count, double mean,
                                           double variance, double min,
                                           double max) {
  if (variance < 0.0)
    throw std::invalid_argument("StreamingStats::FromMoments: variance < 0");
  if (count > 0 && min > max)
    throw std::invalid_argument("StreamingStats::FromMoments: min > max");
  StreamingStats s;
  if (count == 0) return s;
  s.count_ = count;
  s.mean_ = mean;
  s.m2_ = variance * static_cast<double>(count);
  s.sum_ = mean * static_cast<double>(count);
  s.min_ = min;
  s.max_ = max;
  return s;
}

double StreamingStats::Stddev() const { return std::sqrt(Variance()); }

double StreamingStats::Cov() const {
  const double m = Mean();
  return m != 0.0 ? Stddev() / m : 0.0;
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double NormalQuantile(double p) {
  if (!(p > 0.0 && p < 1.0))
    throw std::invalid_argument("NormalQuantile: p must be in (0, 1)");

  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  static constexpr double plow = 0.02425;

  double x;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }

  // One Halley refinement step using the exact CDF.
  const double e = NormalCdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

double ZScore(double confidence) {
  if (!(confidence > 0.0 && confidence < 1.0))
    throw std::invalid_argument("ZScore: confidence must be in (0, 1)");
  const double alpha = 1.0 - confidence;
  return NormalQuantile(1.0 - alpha / 2.0);
}

double Percentile(std::span<const double> values, double p) {
  if (values.empty()) throw std::invalid_argument("Percentile: empty input");
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument("Percentile: p outside [0, 100]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double HarmonicMean(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("HarmonicMean: empty input");
  double recip = 0.0;
  for (double v : values) {
    if (v <= 0.0)
      throw std::invalid_argument("HarmonicMean: values must be positive");
    recip += 1.0 / v;
  }
  return static_cast<double>(values.size()) / recip;
}

double Mad(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("Mad: empty input");
  const double med = Percentile(values, 50.0);
  std::vector<double> dev(values.size());
  for (size_t i = 0; i < values.size(); ++i)
    dev[i] = std::abs(values[i] - med);
  return 1.4826 * Percentile(dev, 50.0);
}

}  // namespace stemroot
