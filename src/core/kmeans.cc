#include "core/kmeans.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/telemetry.h"
#include "common/trace_events.h"

namespace stemroot::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The general loop's rule for k = 2: center 1 wins iff
/// d1 < (d0 < inf ? d0 : inf), a strict `<` against a best distance that
/// starts at +inf, so NaN and inf distances resolve as they always did.
inline bool JoinsOne(double v, double c0, double c1) {
  const double d0 = std::abs(v - c0);
  const double d1 = std::abs(v - c1);
  return d1 < (d0 < kInf ? d0 : kInf);
}

/// The assignment step of Kmeans1D for k = 2: branch-free, and
/// bit-identical to the general loop (DESIGN.md §7).
///
/// Points go in blocks of kBlock. A fixed-trip loop first decides the
/// whole block by JoinsOne. It also writes each point's two addends: its
/// value for its own cluster and +0.0 for the other. That loop has no
/// cross-point dependence, so the compiler turns its selects into vector
/// compares and blends. A second loop then adds the addends to the two sums in
/// point order and updates assignment, counts and `moved`.
///
/// A sum that starts at +0.0 never becomes -0.0, and x + (+0.0) == x for
/// every other x, so each sum equals the general loop's sequential sum.
/// Writes sums[0..1] and counts[0..1]; returns whether any point moved.
bool AssignTwo(std::span<const double> values, double c0, double c1,
               uint32_t* assignment, double* sums, uint64_t* counts) {
  constexpr size_t kBlock = 64;
  double add0[kBlock];
  double add1[kBlock];
  double to1[kBlock];  // 1.0 where the point joins cluster 1, else 0.0
  double padded[kBlock];
  double sum0 = 0.0;
  double sum1 = 0.0;
  uint64_t count1 = 0;
  uint32_t moved = 0;
  const size_t n = values.size();
  for (size_t begin = 0; begin < n; begin += kBlock) {
    const size_t len = std::min(kBlock, n - begin);
    const double* v = values.data() + begin;
    if (len < kBlock) {  // pad the last block to keep the trip count fixed
      std::fill(std::copy(v, v + len, padded), padded + kBlock, 0.0);
      v = padded;
    }
    for (size_t j = 0; j < kBlock; ++j) {
      const bool one = JoinsOne(v[j], c0, c1);
      add0[j] = one ? 0.0 : v[j];
      add1[j] = one ? v[j] : 0.0;
      to1[j] = one ? 1.0 : 0.0;
    }
    uint32_t* block_assignment = assignment + begin;
    for (size_t j = 0; j < len; ++j) {
      sum0 += add0[j];
      sum1 += add1[j];
      const uint32_t best = static_cast<uint32_t>(to1[j]);
      moved |= block_assignment[j] ^ best;
      block_assignment[j] = best;
      count1 += best;
    }
  }
  sums[0] = sum0;
  sums[1] = sum1;
  counts[0] = n - count1;
  counts[1] = count1;
  return moved != 0;
}

/// Seeding rank of center c: floor((c + 0.5) / k * n), clamped to n - 1.
/// Ascends with c.
size_t SeedRank(uint32_t c, uint32_t k, size_t n) {
  const double q = (c + 0.5) / static_cast<double>(k);
  return std::min(n - 1, static_cast<size_t>(q * static_cast<double>(n)));
}

/// Sets centers[c] to the order statistic of `order` at SeedRank(c) by
/// nth_element, permuting `order`. The ranks ascend, so each nth_element
/// only searches the tail the previous one left above its rank.
void NthElementSeeds(std::span<double> order, uint32_t k, double* centers) {
  const size_t n = order.size();
  size_t searched_from = 0;
  for (uint32_t c = 0; c < k; ++c) {
    const size_t rank = SeedRank(c, k, n);
    if (rank >= searched_from) {
      std::nth_element(order.begin() + static_cast<ptrdiff_t>(searched_from),
                       order.begin() + static_cast<ptrdiff_t>(rank),
                       order.end());
      searched_from = rank + 1;
    }
    centers[c] = order[rank];
  }
}

/// The order-preserving key of a non-NaN double: all bits of a negative
/// value flipped, the sign bit of a positive one set. Unsigned key order
/// is then `<` order, with -0.0 just below +0.0.
uint64_t OrderKey(double x) {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  const uint64_t negative =
      static_cast<uint64_t>(static_cast<int64_t>(bits) >> 63);
  return bits ^ (negative | kSign);
}

double FromOrderKey(uint64_t key) {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  return std::bit_cast<double>((key & kSign) != 0 ? key ^ kSign : ~key);
}

/// SeedQuantiles copies up to this many values (32 KiB, which fits L1d)
/// for nth_element; RadixSeeder selects among more.
constexpr size_t kSmallCopy = 4096;

/// Exact quantile selection by radix buckets over order keys, for values
/// with no NaN and no zero (DESIGN.md §7). Each level histograms the keys
/// in a range [lo, hi], gathers the values of the small buckets that hold
/// seeding ranks and finishes there with nth_element, and re-histograms
/// a bucket that still holds more than an eighth of the values over its
/// own key range. A level narrows the range by at least 2^7, so there
/// are at most 10 levels of O(n) passes.
class RadixSeeder {
 public:
  RadixSeeder(std::span<const double> values, uint32_t k, double* centers)
      : values_(values), k_(k), centers_(centers) {}

  /// Sets the centers [c_begin, c_end), whose ranks fall among the
  /// `count` values with keys in [lo, hi]; `lo` and `hi` are the least
  /// and greatest of those keys, and `below` values have smaller keys.
  void Select(uint64_t lo, uint64_t hi, size_t below, size_t count,
              uint32_t c_begin, uint32_t c_end);

 private:
  static constexpr int kMaxBinBits = 12;
  static constexpr size_t kMaxBins = size_t{1} << kMaxBinBits;
  static constexpr uint32_t kNone = ~uint32_t{0};
  /// A level re-histograms a bin of more than an eighth of the values,
  /// and there are more than kSmallCopy of them. With at least 8 bin
  /// bits (bit_width(count) - 2), even such a level narrows the key range
  /// by 2^7, so 64-bit keys take at most ten levels (DESIGN.md §7). Fewer
  /// values give fewer bits: at 2 or fewer a level need not narrow at all.
  static constexpr size_t kFewestRehistogrammed = (kSmallCopy + 1) / 8 + 1;
  static_assert(std::bit_width(kFewestRehistogrammed) >= 10,
                "kSmallCopy is too small for the ten-level bound");

  size_t Rank(uint32_t c) const { return SeedRank(c, k_, values_.size()); }
  /// The least and greatest key in [lo, hi], over every value.
  std::pair<uint64_t, uint64_t> KeyBounds(uint64_t lo, uint64_t hi) const;

  std::span<const double> values_;
  uint32_t k_;
  double* centers_;
};

std::pair<uint64_t, uint64_t> RadixSeeder::KeyBounds(uint64_t lo,
                                                     uint64_t hi) const {
  uint64_t least = hi;
  uint64_t greatest = lo;
  for (const double x : values_) {
    const uint64_t key = OrderKey(x);
    const bool in = key - lo <= hi - lo;
    least = in && key < least ? key : least;
    greatest = in && key > greatest ? key : greatest;
  }
  return {least, greatest};
}

void RadixSeeder::Select(uint64_t lo, uint64_t hi, size_t below,
                         size_t count, uint32_t c_begin, uint32_t c_end) {
  if (lo == hi) {
    std::fill(centers_ + c_begin, centers_ + c_end, FromOrderKey(lo));
    return;
  }
  // About four keys per bin, at most 4096 bins; bin `bins` collects the
  // keys outside [lo, hi].
  const int bin_bits =
      std::min(static_cast<int>(std::bit_width(count)) - 2, kMaxBinBits);
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(hi - lo)) - bin_bits);
  const size_t bins = static_cast<size_t>((hi - lo) >> shift) + 1;
  const auto bin_of = [lo, span = hi - lo, shift, bins](double x) {
    const uint64_t offset = OrderKey(x) - lo;
    return offset <= span ? static_cast<size_t>(offset >> shift) : bins;
  };
  std::array<uint32_t, kMaxBins + 1> hist;
  std::fill_n(hist.begin(), bins + 1, 0u);
  for (const double x : values_) ++hist[bin_of(x)];

  // Calls fn(bin, below_bin, bin_count, c_first, c_last) for each bin
  // that holds the ranks of centers [c_first, c_last), in bin order.
  const auto for_each_target = [&](auto&& fn) {
    size_t start = below;
    uint32_t c = c_begin;
    size_t rank = Rank(c);
    for (size_t b = 0; b < bins && c < c_end; ++b) {
      const size_t end = start + hist[b];
      if (rank < end) {
        const uint32_t c_first = c;
        while (++c < c_end && (rank = Rank(c)) < end) {
        }
        fn(b, start, size_t{hist[b]}, c_first, c);
      }
      start = end;
    }
  };
  const auto gathered = [&](size_t bin_count) {
    return shift != 0 && bin_count <= values_.size() / 8;
  };

  // Gather the values of the small target bins in one pass, each bin's
  // values contiguous in scratch.
  std::array<uint32_t, kMaxBins + 1> pos;
  std::fill_n(pos.begin(), bins + 1, kNone);
  uint32_t total = 0;
  for_each_target([&](size_t b, size_t, size_t bin_count, uint32_t,
                      uint32_t) {
    if (!gathered(bin_count)) return;
    pos[b] = total;
    total += static_cast<uint32_t>(bin_count);
  });
  std::vector<double> scratch(total);
  if (total > 0) {
    for (const double x : values_) {
      const size_t b = bin_of(x);
      const uint32_t p = pos[b];
      if (p != kNone) {
        scratch[p] = x;
        pos[b] = p + 1;
      }
    }
  }

  // Equal values share a bit pattern here, so nth_element over a bin's
  // values picks the value the key order puts at the rank.
  double* bin_values = scratch.data();
  for_each_target([&](size_t b, size_t start, size_t bin_count,
                      uint32_t c_first, uint32_t c_last) {
    const uint64_t bin_lo = lo + (static_cast<uint64_t>(b) << shift);
    if (shift == 0) {  // a one-key bin
      std::fill(centers_ + c_first, centers_ + c_last, FromOrderKey(bin_lo));
    } else if (gathered(bin_count)) {
      size_t searched_from = 0;
      for (uint32_t c = c_first; c < c_last; ++c) {
        const size_t rank = Rank(c) - start;
        if (rank >= searched_from) {
          std::nth_element(bin_values + searched_from, bin_values + rank,
                           bin_values + bin_count);
          searched_from = rank + 1;
        }
        centers_[c] = bin_values[rank];
      }
      bin_values += bin_count;
    } else {
      const uint64_t bin_hi =
          bin_lo + std::min(hi - bin_lo, (uint64_t{1} << shift) - 1);
      const auto [sub_lo, sub_hi] = KeyBounds(bin_lo, bin_hi);
      Select(sub_lo, sub_hi, start, bin_count, c_first, c_last);
    }
  });
}

/// Quantile seeding: centers[c] is the order statistic of `values` at
/// SeedRank(c), exactly the value nth_element over a copy picks.
/// - Up to kSmallCopy values (where nth_element in L1d beats three
///   passes): nth_element over a stack copy.
/// - A NaN or a zero: nth_element over a heap copy, since only
///   nth_element itself defines its NaN placement and its pick of ±0.
/// - Otherwise values equal under `<` share a bit pattern, so every exact
///   selection returns the same values: radix selection, with no copy.
void SeedQuantiles(std::span<const double> values, uint32_t k,
                   double* centers) {
  const size_t n = values.size();
  if (n <= kSmallCopy) {
    std::array<double, kSmallCopy> copy;
    std::copy(values.begin(), values.end(), copy.begin());
    NthElementSeeds({copy.data(), n}, k, centers);
    return;
  }
  uint64_t least = ~uint64_t{0};
  uint64_t greatest = 0;
  bool nan_or_zero = false;
  for (const double x : values) {
    const uint64_t key = OrderKey(x);
    least = std::min(least, key);
    greatest = std::max(greatest, key);
    nan_or_zero |= !((x < 0.0) | (x > 0.0));
  }
  if (nan_or_zero || n > std::numeric_limits<uint32_t>::max()) {
    std::vector<double> copy(values.begin(), values.end());
    NthElementSeeds(copy, k, centers);
    return;
  }
  RadixSeeder(values, k, centers).Select(least, greatest, 0, n, 0, k);
}

/// Whether JoinsOne is a threshold for centers c0 < c1 over values no
/// greater than `greatest`: the values that join center 1 are exactly
/// those from some value up, a suffix of the ascending order
/// (DESIGN.md section 16).
/// - At or below c0, |v - c0| rounds to at most |v - c1|: center 0.
/// - Between the centers, d0 grows and d1 shrinks with v.
/// - Above c1, the exact distances differ by the gap c1 - c0, and each
///   rounds by at most half the rounding step of greatest - c0. A gap
///   above that step keeps d1 < d0. Below it, a far value can round d0
///   and d1 to a tie and keep center 0 above values that joined 1.
/// The gap test also asks c0 < c1, and fails on a NaN or an infinity.
bool RuleIsThreshold(double c0, double c1, double greatest) {
  const double far = greatest - c0;
  const double step = std::nextafter(far, kInf) - far;
  return c1 - c0 > step;
}

/// Seeds the centers and runs Lloyd's loop. With `order`, the ascending
/// order of `values`, the seeds are read by index, and for k = 2 the loop
/// stops before a pass that could only confirm that no point moved.
KmeansResult Lloyd1D(std::span<const double> values,
                     std::span<const uint16_t> order, uint32_t k,
                     uint32_t max_iters) {
  if (k == 0) throw std::invalid_argument("Kmeans1D: k == 0");
  if (values.empty()) throw std::invalid_argument("Kmeans1D: empty input");

  const size_t n = values.size();
  KmeansResult result;
  result.k = k;
  result.assignment.assign(n, 0);
  result.centers.resize(k);

  const bool sorted = !order.empty();
  if (sorted) {
    for (uint32_t c = 0; c < k; ++c)
      result.centers[c] = values[order[SeedRank(c, k, n)]];
  } else {
    SeedQuantiles(values, k, result.centers.data());
  }
  // The early stop: when the rule that made this pass's assignment was a
  // threshold, the assignment is its counts[0] lowest values at center 0.
  // If the rule for the updated centers is a threshold at the same place,
  // the next pass moves no point and ends the loop with these centers.
  const bool stop_early = sorted && k == 2;
  const double greatest = sorted ? values[order.back()] : 0.0;
  bool threshold = stop_early && RuleIsThreshold(result.centers[0],
                                                 result.centers[1], greatest);

  telemetry::Count("core.kmeans.runs");
  trace_events::Scope run_scope("kmeans.run");
  std::vector<double> sums(k);
  std::vector<uint64_t> counts(k);
  for (uint32_t iter = 0; iter < max_iters; ++iter) {
    telemetry::Count("core.kmeans.iterations");
    trace_events::Instant("kmeans.iteration");
    bool moved = false;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);

    if (k == 2) {
      moved = AssignTwo(values, result.centers[0], result.centers[1],
                        result.assignment.data(), sums.data(),
                        counts.data());
    } else {
      for (size_t i = 0; i < n; ++i) {
        uint32_t best = 0;
        double best_dist = std::numeric_limits<double>::infinity();
        for (uint32_t c = 0; c < k; ++c) {
          const double d = std::abs(values[i] - result.centers[c]);
          if (d < best_dist) {
            best_dist = d;
            best = c;
          }
        }
        if (result.assignment[i] != best) {
          result.assignment[i] = best;
          moved = true;
        }
        sums[best] += values[i];
        ++counts[best];
      }
    }

    for (uint32_t c = 0; c < k; ++c) {
      if (counts[c] > 0) {
        result.centers[c] = sums[c] / static_cast<double>(counts[c]);
      } else {
        // Re-seed an empty cluster at the point farthest from its center.
        size_t far_idx = 0;
        double far_dist = -1.0;
        for (size_t i = 0; i < n; ++i) {
          const double d =
              std::abs(values[i] - result.centers[result.assignment[i]]);
          if (d > far_dist) {
            far_dist = d;
            far_idx = i;
          }
        }
        result.centers[c] = values[far_idx];
        moved = true;
      }
    }
    if (!moved && iter > 0) break;
    if (stop_early) {
      const bool was_threshold = threshold;
      const double c0 = result.centers[0];
      const double c1 = result.centers[1];
      threshold = RuleIsThreshold(c0, c1, greatest);
      if (was_threshold && threshold && counts[0] > 0 && counts[1] > 0) {
        const auto stays = std::partition_point(
            order.begin(), order.end(),
            [&](uint16_t i) { return !JoinsOne(values[i], c0, c1); });
        if (static_cast<uint64_t>(stays - order.begin()) == counts[0]) break;
      }
    }
  }

  result.inertia = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = values[i] - result.centers[result.assignment[i]];
    result.inertia += d * d;
  }
  return result;
}

}  // namespace

KmeansResult Kmeans1D(std::span<const double> values, uint32_t k,
                      uint32_t max_iters) {
  return Lloyd1D(values, {}, k, max_iters);
}

KmeansResult Kmeans1D(std::span<const double> values,
                      std::span<const uint16_t> order, uint32_t k,
                      uint32_t max_iters) {
  if (order.size() != values.size())
    throw std::invalid_argument("Kmeans1D: order size differs from input");
  return Lloyd1D(values, order, k, max_iters);
}

namespace {

double SqDist(std::span<const double> points, size_t dim, size_t i,
              std::span<const double> centers, uint32_t c) {
  double sum = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double d = points[i * dim + j] - centers[c * dim + j];
    sum += d * d;
  }
  return sum;
}

}  // namespace

KmeansResult KmeansNd(std::span<const double> points, size_t dim, uint32_t k,
                      uint32_t max_iters) {
  if (k == 0) throw std::invalid_argument("KmeansNd: k == 0");
  if (dim == 0) throw std::invalid_argument("KmeansNd: dim == 0");
  if (points.empty() || points.size() % dim != 0)
    throw std::invalid_argument("KmeansNd: bad points array");
  const size_t n = points.size() / dim;

  KmeansResult result;
  result.k = k;
  result.assignment.assign(n, 0);
  result.centers.assign(static_cast<size_t>(k) * dim, 0.0);

  // Maximin seeding: first center = centroid-nearest point, then
  // iteratively the point farthest from all chosen centers.
  std::vector<double> centroid(dim, 0.0);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < dim; ++j)
      centroid[j] += points[i * dim + j] / static_cast<double>(n);
  size_t first = 0;
  double first_dist = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    double d = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      const double diff = points[i * dim + j] - centroid[j];
      d += diff * diff;
    }
    if (d < first_dist) {
      first_dist = d;
      first = i;
    }
  }
  std::copy_n(points.begin() + static_cast<ptrdiff_t>(first * dim), dim,
              result.centers.begin());
  std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
  for (uint32_t c = 1; c < k; ++c) {
    size_t far_idx = 0;
    double far_dist = -1.0;
    for (size_t i = 0; i < n; ++i) {
      min_dist[i] = std::min(min_dist[i], SqDist(points, dim, i,
                                                 result.centers, c - 1));
      if (min_dist[i] > far_dist) {
        far_dist = min_dist[i];
        far_idx = i;
      }
    }
    std::copy_n(points.begin() + static_cast<ptrdiff_t>(far_idx * dim), dim,
                result.centers.begin() + static_cast<ptrdiff_t>(c) * dim);
  }

  telemetry::Count("core.kmeans.nd_runs");
  std::vector<double> sums(static_cast<size_t>(k) * dim);
  std::vector<uint64_t> counts(k);
  for (uint32_t iter = 0; iter < max_iters; ++iter) {
    telemetry::Count("core.kmeans.nd_iterations");
    bool moved = false;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);

    for (size_t i = 0; i < n; ++i) {
      uint32_t best = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (uint32_t c = 0; c < k; ++c) {
        const double d = SqDist(points, dim, i, result.centers, c);
        if (d < best_dist) {
          best_dist = d;
          best = c;
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        moved = true;
      }
      for (size_t j = 0; j < dim; ++j) sums[best * dim + j] += points[i * dim + j];
      ++counts[best];
    }

    for (uint32_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // keep previous center
      for (size_t j = 0; j < dim; ++j)
        result.centers[c * dim + j] =
            sums[c * dim + j] / static_cast<double>(counts[c]);
    }
    if (!moved && iter > 0) break;
  }

  result.inertia = 0.0;
  for (size_t i = 0; i < n; ++i)
    result.inertia += SqDist(points, dim, i, result.centers,
                             result.assignment[i]);
  return result;
}

}  // namespace stemroot::core
