#include "sim/cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace stemroot::sim {

Cache::Cache(uint64_t size_bytes, uint32_t associativity,
             uint32_t line_bytes)
    : size_bytes_(size_bytes), assoc_(associativity),
      line_bytes_(line_bytes) {
  if (size_bytes == 0 || associativity == 0)
    throw std::invalid_argument("Cache: zero size or associativity");
  if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
    throw std::invalid_argument("Cache: line size not a power of two");
  const uint64_t num_lines = size_bytes / line_bytes;
  if (num_lines == 0 || num_lines % associativity != 0)
    throw std::invalid_argument(
        "Cache: size/line/assoc combination leaves no whole sets");
  num_sets_ = static_cast<uint32_t>(num_lines / associativity);
  line_shift_ = static_cast<uint32_t>(std::countr_zero(line_bytes));
  if (num_sets_ == 1 && line_shift_ == 0)
    throw std::invalid_argument("Cache: one set of 1-byte lines");
  set_pow2_ = std::has_single_bit(num_sets_);
  set_shift_ = static_cast<uint32_t>(std::countr_zero(num_sets_));
  set_mask_ = num_sets_ - 1;
  tags_.assign(num_lines, kInvalid);
  lru_.assign(num_lines, 0);
}

bool Cache::Access(uint64_t addr) {
  const uint64_t line_addr = addr >> line_shift_;
  const uint64_t tag = TagOf(line_addr);
  const size_t base = static_cast<size_t>(SetOf(line_addr)) * assoc_;
  uint64_t* tags = &tags_[base];
  uint64_t* lru = &lru_[base];
  ++clock_;

  // A tag is resident in at most one way, so a full scan without an early
  // exit finds the same way and compiles to conditional moves.
  uint32_t hit = assoc_;
  for (uint32_t way = 0; way < assoc_; ++way)
    if (tags[way] == tag) hit = way;
  if (hit != assoc_) {
    lru[hit] = clock_;
    ++hits_;
    return true;
  }
  // Victim: the last invalid way if there is one, else the way with the
  // smallest LRU stamp. Only Flush invalidates (every way), and fills
  // consume invalid ways from the top down, so a set's invalid ways are
  // always a prefix 0..k-1: way 0 is invalid exactly when any way is.
  uint32_t victim = 0;
  if (tags[0] == kInvalid) {
    while (victim + 1 < assoc_ && tags[victim + 1] == kInvalid) ++victim;
  } else {
    // Valid ways carry distinct stamps (each access takes a fresh clock),
    // so the minimum is unique: find its value over two independent
    // min chains, then its way.
    uint64_t low_a = lru[0], low_b = lru[0];
    uint32_t way = 1;
    for (; way + 1 < assoc_; way += 2) {
      low_a = std::min(low_a, lru[way]);
      low_b = std::min(low_b, lru[way + 1]);
    }
    if (way < assoc_) low_a = std::min(low_a, lru[way]);
    const uint64_t oldest = std::min(low_a, low_b);
    for (way = 0; way < assoc_; ++way)
      if (lru[way] == oldest) victim = way;
  }
  tags[victim] = tag;
  lru[victim] = clock_;
  ++misses_;
  return false;
}

bool Cache::Contains(uint64_t addr) const {
  const uint64_t line_addr = addr >> line_shift_;
  const uint64_t tag = TagOf(line_addr);
  const uint64_t* tags =
      &tags_[static_cast<size_t>(SetOf(line_addr)) * assoc_];
  for (uint32_t way = 0; way < assoc_; ++way)
    if (tags[way] == tag) return true;
  return false;
}

void Cache::Flush() { std::fill(tags_.begin(), tags_.end(), kInvalid); }

void Cache::ResetStats() {
  hits_ = 0;
  misses_ = 0;
}

uint64_t Cache::ContentDigest() const {
  constexpr uint64_t kOffset = 14695981039346656037ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t digest = kOffset;
  const auto mix = [&digest](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (v >> (byte * 8)) & 0xFF;
      digest *= kPrime;
    }
  };
  std::vector<uint32_t> ways(assoc_);
  for (uint32_t set = 0; set < num_sets_; ++set) {
    const uint64_t* tags = &tags_[static_cast<size_t>(set) * assoc_];
    const uint64_t* lru = &lru_[static_cast<size_t>(set) * assoc_];
    // Valid ways in LRU-rank order (oldest first): the digest captures
    // replacement priority, not the absolute clock values.
    uint32_t valid = 0;
    for (uint32_t way = 0; way < assoc_; ++way)
      if (tags[way] != kInvalid) ways[valid++] = way;
    std::sort(ways.begin(), ways.begin() + valid,
              [lru](uint32_t a, uint32_t b) {
                if (lru[a] != lru[b]) return lru[a] < lru[b];
                return a < b;
              });
    mix(set);
    mix(valid);
    for (uint32_t k = 0; k < valid; ++k) mix(tags[ways[k]]);
  }
  return digest;
}

}  // namespace stemroot::sim
