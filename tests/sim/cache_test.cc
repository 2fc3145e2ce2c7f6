#include "sim/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace stemroot::sim {
namespace {

/// The array-of-structs true-LRU cache that `Cache` replaced, kept verbatim
/// as the reference: `%` / `/` set indexing for every geometry, a valid bit
/// per line, and the victim rule "last invalid way, else the first way
/// with the smallest LRU stamp" in one scan.
class ReferenceCache {
 public:
  ReferenceCache(uint64_t size_bytes, uint32_t assoc, uint32_t line_bytes)
      : assoc_(assoc),
        num_sets_(static_cast<uint32_t>(size_bytes / line_bytes / assoc)),
        line_shift_(static_cast<uint32_t>(std::countr_zero(line_bytes))),
        lines_(size_bytes / line_bytes) {}

  bool Access(uint64_t addr) {
    const uint64_t line_addr = addr >> line_shift_;
    const uint32_t set = static_cast<uint32_t>(line_addr % num_sets_);
    const uint64_t tag = line_addr / num_sets_;
    Line* base = &lines_[static_cast<size_t>(set) * assoc_];
    ++clock_;
    Line* victim = base;
    for (uint32_t way = 0; way < assoc_; ++way) {
      Line& line = base[way];
      if (line.valid && line.tag == tag) {
        line.lru = clock_;
        ++hits_;
        return true;
      }
      if (!line.valid) {
        victim = &line;
      } else if (victim->valid && line.lru < victim->lru) {
        victim = &line;
      }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = clock_;
    ++misses_;
    return false;
  }

  bool Contains(uint64_t addr) const {
    const uint64_t line_addr = addr >> line_shift_;
    const uint32_t set = static_cast<uint32_t>(line_addr % num_sets_);
    const uint64_t tag = line_addr / num_sets_;
    const Line* base = &lines_[static_cast<size_t>(set) * assoc_];
    for (uint32_t way = 0; way < assoc_; ++way)
      if (base[way].valid && base[way].tag == tag) return true;
    return false;
  }

  void Flush() {
    for (Line& line : lines_) line.valid = false;
  }

  uint64_t Hits() const { return hits_; }
  uint64_t Misses() const { return misses_; }

  uint64_t ContentDigest() const {
    uint64_t digest = 14695981039346656037ull;
    const auto mix = [&digest](uint64_t v) {
      for (int byte = 0; byte < 8; ++byte) {
        digest ^= (v >> (byte * 8)) & 0xFF;
        digest *= 1099511628211ull;
      }
    };
    std::vector<uint32_t> ways(assoc_);
    for (uint32_t set = 0; set < num_sets_; ++set) {
      const Line* base = &lines_[static_cast<size_t>(set) * assoc_];
      uint32_t valid = 0;
      for (uint32_t way = 0; way < assoc_; ++way)
        if (base[way].valid) ways[valid++] = way;
      std::sort(ways.begin(), ways.begin() + valid,
                [base](uint32_t a, uint32_t b) {
                  if (base[a].lru != base[b].lru)
                    return base[a].lru < base[b].lru;
                  return a < b;
                });
      mix(set);
      mix(valid);
      for (uint32_t k = 0; k < valid; ++k) mix(base[ways[k]].tag);
    }
    return digest;
  }

 private:
  struct Line {
    uint64_t tag = ~0ULL;
    uint64_t lru = 0;
    bool valid = false;
  };
  uint32_t assoc_;
  uint32_t num_sets_;
  uint32_t line_shift_;
  std::vector<Line> lines_;
  uint64_t clock_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

TEST(CacheTest, ColdMissThenHit) {
  Cache cache(1024, 2, 64);
  EXPECT_FALSE(cache.Access(0x1000));
  EXPECT_TRUE(cache.Access(0x1000));
  EXPECT_TRUE(cache.Access(0x1010));  // same line
  EXPECT_EQ(cache.Hits(), 2u);
  EXPECT_EQ(cache.Misses(), 1u);
}

TEST(CacheTest, GeometryDerived) {
  Cache cache(8192, 4, 64);  // 128 lines, 32 sets
  EXPECT_EQ(cache.NumSets(), 32u);
  EXPECT_EQ(cache.Associativity(), 4u);
  EXPECT_EQ(cache.SizeBytes(), 8192u);
}

TEST(CacheTest, LruEvictsOldest) {
  // Direct-mapped within one set: 2-way, 1 set.
  Cache cache(128, 2, 64);
  cache.Access(0 * 64);    // A
  cache.Access(1 * 64);    // B
  cache.Access(0 * 64);    // touch A (B is now LRU)
  cache.Access(2 * 64);    // C evicts B
  EXPECT_TRUE(cache.Contains(0 * 64));
  EXPECT_FALSE(cache.Contains(1 * 64));
  EXPECT_TRUE(cache.Contains(2 * 64));
}

TEST(CacheTest, SetIndexingSeparatesConflicts) {
  // 2 sets, 1 way: lines alternate sets by address.
  Cache cache(128, 1, 64);
  EXPECT_EQ(cache.NumSets(), 2u);
  cache.Access(0 * 64);  // set 0
  cache.Access(1 * 64);  // set 1
  EXPECT_TRUE(cache.Contains(0 * 64));
  EXPECT_TRUE(cache.Contains(1 * 64));
  cache.Access(2 * 64);  // set 0 again -> evicts line 0
  EXPECT_FALSE(cache.Contains(0 * 64));
  EXPECT_TRUE(cache.Contains(1 * 64));
}

TEST(CacheTest, FlushInvalidatesEverything) {
  Cache cache(1024, 2, 64);
  cache.Access(0x100);
  cache.Access(0x200);
  cache.Flush();
  EXPECT_FALSE(cache.Contains(0x100));
  EXPECT_FALSE(cache.Contains(0x200));
  EXPECT_FALSE(cache.Access(0x100));  // miss again
}

TEST(CacheTest, ContainsDoesNotMutate) {
  Cache cache(128, 2, 64);
  cache.Access(0 * 64);
  cache.Access(1 * 64);
  // Probing A must not refresh its LRU position.
  cache.Contains(0 * 64);
  const uint64_t hits_before = cache.Hits();
  cache.Access(2 * 64);  // evicts true-LRU = A
  EXPECT_FALSE(cache.Contains(0 * 64));
  EXPECT_EQ(cache.Hits(), hits_before);
}

TEST(CacheTest, ResetStatsKeepsContent) {
  Cache cache(1024, 2, 64);
  cache.Access(0x100);
  cache.ResetStats();
  EXPECT_EQ(cache.Hits(), 0u);
  EXPECT_EQ(cache.Misses(), 0u);
  EXPECT_TRUE(cache.Contains(0x100));
}

TEST(CacheTest, WorkingSetLargerThanCacheThrashes) {
  Cache cache(1024, 2, 64);  // 16 lines
  // Stream 64 distinct lines twice: second pass still mostly misses.
  for (int pass = 0; pass < 2; ++pass)
    for (uint64_t line = 0; line < 64; ++line)
      cache.Access(line * 64);
  EXPECT_LT(static_cast<double>(cache.Hits()) /
                static_cast<double>(cache.Hits() + cache.Misses()),
            0.2);
}

TEST(CacheTest, WorkingSetFittingCacheHitsOnReuse) {
  Cache cache(4096, 4, 64);  // 64 lines
  for (int pass = 0; pass < 10; ++pass)
    for (uint64_t line = 0; line < 32; ++line)
      cache.Access(line * 64);
  // First pass misses, the rest hit: hit rate ~ 9/10.
  EXPECT_GT(static_cast<double>(cache.Hits()) /
                static_cast<double>(cache.Hits() + cache.Misses()),
            0.85);
}

TEST(CacheTest, ConstructionValidation) {
  EXPECT_THROW(Cache(0, 2, 64), std::invalid_argument);
  EXPECT_THROW(Cache(1024, 0, 64), std::invalid_argument);
  EXPECT_THROW(Cache(1024, 2, 60), std::invalid_argument);  // not pow2
  EXPECT_THROW(Cache(100, 3, 64), std::invalid_argument);   // ragged sets
  // One set of 1-byte lines: tags would span all 64 bits.
  EXPECT_THROW(Cache(4, 4, 1), std::invalid_argument);
  EXPECT_NO_THROW(Cache(8, 4, 1));  // two sets
  EXPECT_NO_THROW(Cache(8, 4, 2));  // one set of 2-byte lines
}

TEST(CacheTest, MatchesReferenceTrueLru) {
  struct Geometry {
    uint64_t size_bytes;
    uint32_t assoc;
    uint32_t line_bytes;
  };
  // Power-of-two set counts take the mask/shift index, the rest `%` / `/`.
  const Geometry geometries[] = {
      {8192, 4, 64},          // 32 sets
      {64 * 1024, 16, 128},   // 32 sets, the L2 way count
      {1024, 16, 64},         // 1 set, fully associative
      {12288, 4, 64},         // 48 sets
      {7 * 2 * 64, 2, 64},    // 7 sets
      {5 * 64, 1, 64},        // 5 sets, direct-mapped
      {6 * 3 * 128, 3, 128},  // 6 sets, odd associativity
      {100 * 16 * 128, 16, 128},  // 100 sets (H100's 25,600 / 256)
  };
  for (const Geometry& g : geometries) {
    SCOPED_TRACE(testing::Message() << g.size_bytes << "B " << g.assoc
                                    << "-way " << g.line_bytes << "B lines");
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
      Cache cache(g.size_bytes, g.assoc, g.line_bytes);
      ReferenceCache reference(g.size_bytes, g.assoc, g.line_bytes);
      Rng rng(DeriveSeed(seed, g.size_bytes * 131 + g.assoc));
      const uint64_t lines = g.size_bytes / g.line_bytes;
      const uint64_t base = rng() & ~0xFFFFull;
      for (int step = 0; step < 20000; ++step) {
        const double u = rng.NextDouble();
        if (u < 0.0005) {
          cache.Flush();
          reference.Flush();
          continue;
        }
        // Mostly a working set of ~2x the capacity (hits and evictions),
        // sometimes an arbitrary address.
        const uint64_t addr =
            u < 0.9 ? base + rng.NextBounded(2 * lines) * g.line_bytes +
                          rng.NextBounded(g.line_bytes)
                    : rng();
        if (u < 0.95) {
          ASSERT_EQ(cache.Access(addr), reference.Access(addr))
              << "step " << step;
        } else {
          ASSERT_EQ(cache.Contains(addr), reference.Contains(addr))
              << "step " << step;
        }
        if (step % 4999 == 0) {
          ASSERT_EQ(cache.ContentDigest(), reference.ContentDigest())
              << "step " << step;
        }
      }
      EXPECT_EQ(cache.Hits(), reference.Hits());
      EXPECT_EQ(cache.Misses(), reference.Misses());
      EXPECT_GT(cache.Hits(), 0u);
      EXPECT_EQ(cache.ContentDigest(), reference.ContentDigest());
    }
  }
}

}  // namespace
}  // namespace stemroot::sim
