#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace stemroot {

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins == 0");
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi <= lo");
  width_ = (hi - lo) / static_cast<double>(bins);
}

Histogram Histogram::FromData(std::span<const double> values, size_t bins) {
  if (values.empty()) throw std::invalid_argument("Histogram: empty data");
  double lo = values.front();
  double hi = values.front();
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi == lo) {
    // Degenerate constant data: give it a unit-wide box around the value.
    lo -= 0.5;
    hi += 0.5;
  } else {
    const double pad = (hi - lo) / static_cast<double>(bins) * 0.5;
    lo -= pad;
    hi += pad;
  }
  Histogram h(lo, hi, bins);
  for (double v : values) h.Add(v);
  return h;
}

void Histogram::Add(double x) {
  ptrdiff_t bin = static_cast<ptrdiff_t>((x - lo_) / width_);
  bin = std::clamp<ptrdiff_t>(bin, 0,
                              static_cast<ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<size_t>(bin)];
  ++total_;
}

double Histogram::BinCenter(size_t bin) const {
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

size_t Histogram::CountPeaks(double min_prominence_frac,
                             size_t smooth_radius) const {
  const size_t n = counts_.size();
  if (n == 0 || total_ == 0) return 0;

  // Moving-average smoothing to suppress bin noise.
  std::vector<double> smooth(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i >= smooth_radius ? i - smooth_radius : 0;
    const size_t hi = std::min(i + smooth_radius, n - 1);
    double sum = 0.0;
    for (size_t j = lo; j <= hi; ++j) sum += static_cast<double>(counts_[j]);
    smooth[i] = sum / static_cast<double>(hi - lo + 1);
  }

  const double max_val = *std::max_element(smooth.begin(), smooth.end());
  const double threshold = max_val * min_prominence_frac;

  // A peak is a maximal run of bins above threshold containing a local max.
  // Count runs above threshold separated by at least one bin that dips
  // below half the smaller neighbouring peak (valley test).
  size_t peaks = 0;
  bool in_peak = false;
  double run_max = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (smooth[i] >= threshold) {
      if (!in_peak) {
        in_peak = true;
        run_max = smooth[i];
        ++peaks;
      } else {
        run_max = std::max(run_max, smooth[i]);
      }
    } else if (in_peak && smooth[i] < 0.5 * run_max) {
      in_peak = false;
    }
  }
  return peaks;
}

LogHistogram::LogHistogram(double lo, double growth, size_t bins)
    : lo_(lo), growth_(growth), counts_(bins) {
  if (bins < 3)
    throw std::invalid_argument("LogHistogram: need >= 3 bins "
                                "(underflow, one log bucket, overflow)");
  if (!(lo > 0.0)) throw std::invalid_argument("LogHistogram: lo <= 0");
  if (!(growth > 1.0))
    throw std::invalid_argument("LogHistogram: growth <= 1");
  log_growth_ = std::log(growth);
}

size_t LogHistogram::BucketIndex(double value) const {
  if (value < lo_) return 0;
  // value in [lo*growth^(i-1), lo*growth^i) -> bucket i.
  const double exact = std::log(value / lo_) / log_growth_;
  size_t bin = static_cast<size_t>(exact) + 1;
  // Guard the float rounding at bucket edges: the bound itself belongs to
  // the next bucket up.
  if (value >= BinUpperBound(bin) && bin + 1 < counts_.size()) ++bin;
  return std::min(bin, counts_.size() - 1);
}

void LogHistogram::Record(double value) {
  if (!(value >= 0.0) || !std::isfinite(value)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  counts_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Positive doubles order the same as their bit patterns, so max is one
  // integer CAS loop; sum needs the full double CAS.
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  uint64_t prev_max = max_bits_.load(std::memory_order_relaxed);
  while (bits > prev_max &&
         !max_bits_.compare_exchange_weak(prev_max, bits,
                                          std::memory_order_relaxed)) {
  }
  uint64_t prev_sum = sum_bits_.load(std::memory_order_relaxed);
  while (true) {
    const double next = std::bit_cast<double>(prev_sum) + value;
    if (sum_bits_.compare_exchange_weak(prev_sum,
                                        std::bit_cast<uint64_t>(next),
                                        std::memory_order_relaxed))
      break;
  }
}

double LogHistogram::Sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

double LogHistogram::Max() const {
  return std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
}

double LogHistogram::Mean() const {
  const uint64_t n = Count();
  return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
}

double LogHistogram::BinUpperBound(size_t bin) const {
  if (bin == 0) return lo_;
  if (bin >= counts_.size() - 1)
    return std::numeric_limits<double>::infinity();
  return lo_ * std::pow(growth_, static_cast<double>(bin));
}

uint64_t LogHistogram::BinCount(size_t bin) const {
  return counts_.at(bin).load(std::memory_order_relaxed);
}

std::vector<uint64_t> LogHistogram::Snapshot() const {
  std::vector<uint64_t> out(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) out[i] = BinCount(i);
  return out;
}

double LogHistogram::Quantile(double q) const {
  const std::vector<uint64_t> counts = Snapshot();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  if (q >= 1.0) return Max();
  q = std::max(q, 0.0);
  // Nearest-rank: the smallest bucket whose cumulative count covers
  // ceil(q * total) observations (rank 1 for q == 0).
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(q * static_cast<double>(total))));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank)
      return i == counts.size() - 1 ? Max() : BinUpperBound(i);
  }
  return Max();
}

std::string Histogram::Render(size_t max_width) const {
  uint64_t max_count = 0;
  for (uint64_t c : counts_) max_count = std::max(max_count, c);
  if (max_count == 0) max_count = 1;

  std::string out;
  char line[160];
  for (size_t i = 0; i < counts_.size(); ++i) {
    const size_t bar =
        static_cast<size_t>(static_cast<double>(counts_[i]) /
                            static_cast<double>(max_count) *
                            static_cast<double>(max_width));
    std::snprintf(line, sizeof(line), "%12.3f | %-8llu ", BinCenter(i),
                  static_cast<unsigned long long>(counts_[i]));
    out += line;
    out.append(bar, '#');
    out += '\n';
  }
  return out;
}

}  // namespace stemroot
