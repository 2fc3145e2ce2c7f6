/// \file
/// Set-associative LRU cache model shared by the simulator's L1 and L2
/// levels.

#pragma once

#include <cstdint>
#include <vector>

namespace stemroot::sim {

/// Classic set-associative cache with true-LRU replacement. Tracks hits
/// and misses; allocate-on-miss for both reads and writes (GPU L2s are
/// write-allocate; Sec. 5.5 notes writes always hit L2 under the paper's
/// policy assumption).
class Cache {
 public:
  /// Throws std::invalid_argument on non-power-of-two line size, zero
  /// sizes, associativity that does not divide the line count, or one set
  /// of 1-byte lines (whose tags would cover all 64 bits, leaving none
  /// free for the invalid-line sentinel).
  Cache(uint64_t size_bytes, uint32_t associativity, uint32_t line_bytes);

  /// Access one byte address; returns true on hit. Misses allocate.
  bool Access(uint64_t addr);

  /// Probe without state change; returns true if resident.
  bool Contains(uint64_t addr) const;

  /// Invalidate everything (the ablation_warmup bench's L2 flush).
  void Flush();

  uint64_t Hits() const { return hits_; }
  uint64_t Misses() const { return misses_; }
  void ResetStats();

  /// FNV-1a digest of the resident content and its recency order: per
  /// set, the valid tags in LRU-rank order. Two caches that hold the same
  /// lines with the same replacement priority digest identically, however
  /// they got there -- the determinism tests use this to pin L2 state
  /// without serializing the whole array.
  uint64_t ContentDigest() const;

  uint32_t NumSets() const { return num_sets_; }
  uint32_t Associativity() const { return assoc_; }
  uint64_t SizeBytes() const { return size_bytes_; }

  /// Logical model-state footprint in bytes (the tag and LRU arrays plus
  /// the object itself) — a pure function of the cache geometry, for the
  /// "sim" category of resource::AccountPeak (DESIGN.md §15).
  uint64_t ApproxBytes() const {
    return sizeof(*this) + (tags_.size() + lru_.size()) * sizeof(uint64_t);
  }

 private:
  /// Tag of an invalid line. Real tags are line_addr / num_sets_, which
  /// stays below this unless one set holds 1-byte lines (refused).
  static constexpr uint64_t kInvalid = ~0ULL;

  /// Set index and tag of a line address: a mask and a shift when the set
  /// count is a power of two, `%` and `/` otherwise.
  uint32_t SetOf(uint64_t line_addr) const {
    return static_cast<uint32_t>(set_pow2_ ? line_addr & set_mask_
                                           : line_addr % num_sets_);
  }
  uint64_t TagOf(uint64_t line_addr) const {
    return set_pow2_ ? line_addr >> set_shift_ : line_addr / num_sets_;
  }

  uint64_t size_bytes_;
  uint32_t assoc_;
  uint32_t line_bytes_;
  uint32_t num_sets_;
  uint32_t line_shift_;
  bool set_pow2_;
  uint32_t set_shift_;  ///< log2(num_sets_) when set_pow2_
  uint64_t set_mask_;   ///< num_sets_ - 1 when set_pow2_
  // Split arrays, num_sets_ * assoc_ each, set-major: a hit check reads
  // only the set's tags.
  std::vector<uint64_t> tags_;  ///< kInvalid marks an invalid way
  std::vector<uint64_t> lru_;   ///< global access counter at last touch
  uint64_t clock_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace stemroot::sim
