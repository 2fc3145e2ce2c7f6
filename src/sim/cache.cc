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
}

bool Cache::Access(uint64_t addr) {
  const uint64_t line_addr = addr >> line_shift_;
  const uint64_t tag = TagOf(line_addr);
  uint64_t* tags = &tags_[static_cast<size_t>(SetOf(line_addr)) * assoc_];

  // The set is in recency order. Scan from the most recent way, moving
  // each tag passed down one way, and stop at the hit: the tag ends at way
  // 0. A miss moves every way and drops the last one, an invalid way if
  // any is left, else the least recently used.
  uint64_t carry = tag;
  for (uint32_t way = 0; way < assoc_; ++way) {
    const uint64_t held = tags[way];
    tags[way] = carry;
    if (held == tag) {
      ++hits_;
      return true;
    }
    carry = held;
  }
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
  for (uint32_t set = 0; set < num_sets_; ++set) {
    const uint64_t* tags = &tags_[static_cast<size_t>(set) * assoc_];
    // Valid ways are a prefix in recency order; the digest takes them
    // least recent first.
    uint32_t valid = 0;
    while (valid < assoc_ && tags[valid] != kInvalid) ++valid;
    mix(set);
    mix(valid);
    for (uint32_t way = valid; way > 0; --way) mix(tags[way - 1]);
  }
  return digest;
}

}  // namespace stemroot::sim
