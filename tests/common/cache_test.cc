#include "common/cache.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"

namespace stemroot {
namespace {

namespace fs = std::filesystem;

class ArtifactCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sr_cache_test_" +
            std::to_string(
                std::hash<std::thread::id>{}(std::this_thread::get_id())) +
            "_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed() +
                counter_++));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string DirStr() const { return dir_.string(); }

  fs::path dir_;
  static int counter_;
};

int ArtifactCacheTest::counter_ = 0;

TEST(Fnv1a64Test, KnownValuesAndSensitivity) {
  // FNV-1a offset basis for the empty string.
  EXPECT_EQ(Fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_NE(Fnv1a64("ab"), Fnv1a64("ba"));
  const std::string with_nul("a\0b", 3);
  EXPECT_NE(Fnv1a64(with_nul), Fnv1a64("ab"));
}

TEST(Xxh64Test, PublishedVectors) {
  EXPECT_EQ(Xxh64(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(Xxh64("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(Xxh64("abc"), 0x44BC2CF5AD770999ULL);
  // 39 bytes: one 32-byte stripe, then the 4-byte and 1-byte tails.
  EXPECT_EQ(Xxh64("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
  // 43 bytes: one stripe, then the 8-byte and 1-byte tails.
  EXPECT_EQ(Xxh64("The quick brown fox jumps over the lazy dog"),
            0x0B242D361FDA71BCULL);
}

TEST(Xxh64Test, UnalignedInputHashesLikeACopy) {
  Rng rng(7);
  std::string bytes(300, '\0');
  for (char& c : bytes) c = static_cast<char>(rng());
  for (size_t offset = 1; offset < 8; ++offset) {
    for (const size_t len : {size_t{31}, size_t{32}, size_t{77}, size_t{290}}) {
      const std::string_view unaligned =
          std::string_view(bytes).substr(offset, len);
      EXPECT_EQ(Xxh64(unaligned), Xxh64(std::string(unaligned)))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(HexDigest64Test, FixedWidthLowercase) {
  EXPECT_EQ(HexDigest64(0), "0000000000000000");
  EXPECT_EQ(HexDigest64(0xDEADBEEFULL), "00000000deadbeef");
  EXPECT_EQ(HexDigest64(~0ULL), "ffffffffffffffff");
}

TEST_F(ArtifactCacheTest, MissOnEmptyCacheThenRoundTrip) {
  ArtifactCache cache(DirStr());
  EXPECT_FALSE(cache.Get("key-1").has_value());

  const std::string payload = "binary\0payload\xff with bytes";
  cache.Put("key-1", payload);
  const std::optional<std::string> got = cache.Get("key-1");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_TRUE(cache.Contains("key-1"));
  EXPECT_FALSE(cache.Contains("key-2"));
}

TEST_F(ArtifactCacheTest, PutReplacesExistingEntry) {
  ArtifactCache cache(DirStr());
  cache.Put("k", "first");
  cache.Put("k", "second");
  const std::optional<std::string> got = cache.Get("k");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "second");
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST_F(ArtifactCacheTest, EmptyPayloadRoundTrips) {
  ArtifactCache cache(DirStr());
  cache.Put("empty", "");
  const std::optional<std::string> got = cache.Get("empty");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST_F(ArtifactCacheTest, NoTempFileResidueAfterPut) {
  ArtifactCache cache(DirStr());
  cache.Put("k", "payload");
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".srce") << entry.path();
  }
  EXPECT_EQ(files, 1u);
}

TEST_F(ArtifactCacheTest, TruncatedEntryIsAMiss) {
  ArtifactCache cache(DirStr());
  cache.Put("k", std::string(1024, 'x'));
  const std::string path = cache.EntryPath("k");
  fs::resize_file(path, 32);
  EXPECT_FALSE(cache.Get("k").has_value());
  // The defective entry can be overwritten and works again.
  cache.Put("k", "fresh");
  ASSERT_TRUE(cache.Get("k").has_value());
  EXPECT_EQ(*cache.Get("k"), "fresh");
}

TEST_F(ArtifactCacheTest, EvenHeaderOnlyTruncationIsAMiss) {
  ArtifactCache cache(DirStr());
  cache.Put("k", "payload");
  fs::resize_file(cache.EntryPath("k"), 3);  // shorter than the magic
  EXPECT_FALSE(cache.Get("k").has_value());
  fs::resize_file(cache.EntryPath("k"), 0);
  EXPECT_FALSE(cache.Get("k").has_value());
}

TEST_F(ArtifactCacheTest, FlippedPayloadByteIsAMiss) {
  ArtifactCache cache(DirStr());
  cache.Put("k", std::string(256, 'y'));
  const std::string path = cache.EntryPath("k");
  // Flip one byte near the end (inside the payload).
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekp(-5, std::ios::end);
  f.put('Z');
  f.close();
  EXPECT_FALSE(cache.Get("k").has_value());
}

TEST_F(ArtifactCacheTest, WrongKeyInEntryIsAMiss) {
  ArtifactCache cache(DirStr());
  cache.Put("real-key", "payload");
  // Simulate a digest collision / renamed file: the entry for "real-key"
  // placed where another key's digest points.
  fs::copy_file(cache.EntryPath("real-key"), cache.EntryPath("other-key"));
  EXPECT_FALSE(cache.Get("other-key").has_value());
  EXPECT_TRUE(cache.Get("real-key").has_value());
}

TEST_F(ArtifactCacheTest, GarbageFileIsAMissNotACrash) {
  ArtifactCache cache(DirStr());
  fs::create_directories(dir_);
  std::ofstream(cache.EntryPath("k"), std::ios::binary)
      << "this is not an SRCE entry at all";
  EXPECT_FALSE(cache.Get("k").has_value());
}

/// Telemetry on and empty for the duration of one test.
class ScopedTelemetry {
 public:
  ScopedTelemetry() {
    telemetry::SetEnabled(true);
    telemetry::Reset();
  }
  ~ScopedTelemetry() {
    telemetry::Reset();
    telemetry::SetEnabled(false);
  }
};

TEST_F(ArtifactCacheTest, HitReadsExactlyThePayload) {
  const ScopedTelemetry telemetry_on;
  ArtifactCache cache(DirStr());
  std::string payload(3 << 20, '\0');
  for (size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<char>((i * 2654435761u) >> 13);
  cache.Put("k", payload);
  const std::optional<std::string> got = cache.Get("k");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(*got == payload);
  const telemetry::Snapshot snap = telemetry::Capture();
  EXPECT_EQ(snap.Counter("cache.hit"), 1u);
  EXPECT_EQ(snap.Counter("cache.read_bytes"), payload.size());
  EXPECT_EQ(snap.Counter("cache.miss"), 0u);
}

TEST_F(ArtifactCacheTest, DefectiveEntriesStayMissesUnderTheOnePassRead) {
  const ScopedTelemetry telemetry_on;
  ArtifactCache cache(DirStr());
  const std::string payload(4096, 'p');
  cache.Put("k", payload);
  const std::string path = cache.EntryPath("k");
  const uintmax_t size = fs::file_size(path);

  struct Damage {
    const char* what;
    uint64_t corrupt;  ///< expected cache.corrupt count for this miss
  };
  auto expect_miss = [&](const Damage& damage) {
    telemetry::Reset();
    EXPECT_FALSE(cache.Get("k").has_value()) << damage.what;
    const telemetry::Snapshot snap = telemetry::Capture();
    EXPECT_EQ(snap.Counter("cache.miss"), 1u) << damage.what;
    EXPECT_EQ(snap.Counter("cache.corrupt"), damage.corrupt) << damage.what;
    EXPECT_EQ(snap.Counter("cache.hit"), 0u) << damage.what;
  };

  fs::resize_file(path, size - 1);
  expect_miss({"truncated by one byte", 1});
  cache.Put("k", payload);
  std::ofstream(path, std::ios::binary | std::ios::app) << "trailing";
  expect_miss({"trailing bytes", 1});
  fs::resize_file(path, 0);
  expect_miss({"empty file", 1});
  // Not an entry at all: unreadable, like a missing file.
  fs::remove(path);
  fs::create_directory(path);
  expect_miss({"directory at the entry path", 0});
  fs::remove(path);
  expect_miss({"missing", 0});
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Overwrite a little-endian POD at `offset` of `bytes`.
template <typename T>
std::string PatchAt(std::string bytes, size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
  return bytes;
}

TEST_F(ArtifactCacheTest, EveryMutationOfASmallEntryIsACountedMiss) {
  // A bounded slice of a decoder fuzzer: each mutated entry must be a
  // plain miss counted in cache.corrupt, and Get must never throw.
  const ScopedTelemetry telemetry_on;
  ArtifactCache cache(DirStr());
  Rng rng(20250418);
  const std::string key = "mutation-key";
  // 45 bytes: the checksum runs its 32-byte stripe and all three tails.
  std::string payload(45, '\0');
  for (char& c : payload) c = static_cast<char>(rng());
  cache.Put(key, payload);
  const std::string path = cache.EntryPath(key);
  const std::string entry = ReadAll(path);
  // magic(4) | version u32 | key_len u32 | key | payload_len u64 | xxh64.
  const size_t key_len_at = 8;
  const size_t payload_len_at = 12 + key.size();
  ASSERT_EQ(entry.size(), payload_len_at + 16 + payload.size());

  size_t cases = 0;
  auto expect_corrupt_miss = [&](const std::string& bytes,
                                 const std::string& what) {
    ++cases;
    WriteAll(path, bytes);
    telemetry::Reset();
    std::optional<std::string> got;
    EXPECT_NO_THROW(got = cache.Get(key)) << what;
    EXPECT_FALSE(got.has_value()) << what;
    const telemetry::Snapshot snap = telemetry::Capture();
    EXPECT_EQ(snap.Counter("cache.miss"), 1u) << what;
    EXPECT_EQ(snap.Counter("cache.corrupt"), 1u) << what;
  };

  for (size_t bit = 0; bit < entry.size() * 8; ++bit) {
    std::string bytes = entry;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    expect_corrupt_miss(bytes, "bit " + std::to_string(bit) + " flipped");
  }
  for (size_t len = 0; len < entry.size(); ++len)
    expect_corrupt_miss(entry.substr(0, len),
                        "truncated to " + std::to_string(len));

  std::vector<uint32_t> key_lens = {
      static_cast<uint32_t>(key.size() + 1),
      static_cast<uint32_t>(entry.size()), uint32_t{1} << 16,
      (uint32_t{1} << 16) + 1, std::numeric_limits<uint32_t>::max()};
  std::vector<uint64_t> payload_lens = {
      payload.size() + 1, entry.size(), uint64_t{1} << 40,
      std::numeric_limits<uint64_t>::max()};
  for (int i = 0; i < 16; ++i) {
    key_lens.push_back(static_cast<uint32_t>(rng() | 0x8000u));
    payload_lens.push_back(rng() | 0x100u);
  }
  for (const uint32_t len : key_lens)
    expect_corrupt_miss(PatchAt(entry, key_len_at, len),
                        "key length " + std::to_string(len));
  for (const uint64_t len : payload_lens)
    expect_corrupt_miss(PatchAt(entry, payload_len_at, len),
                        "payload length " + std::to_string(len));

  // Random overwrites of 1-8 bytes anywhere in the entry.
  for (int i = 0; i < 256; ++i) {
    std::string bytes = entry;
    const size_t at = rng.NextBounded(bytes.size());
    const size_t n =
        std::min<size_t>(1 + rng.NextBounded(8), bytes.size() - at);
    for (size_t j = 0; j < n; ++j) bytes[at + j] = static_cast<char>(rng());
    if (bytes == entry) continue;
    expect_corrupt_miss(bytes, "overwrite at " + std::to_string(at));
  }
  EXPECT_GT(cases, entry.size() * 9);

  // The intact entry still hits.
  WriteAll(path, entry);
  const std::optional<std::string> got = cache.Get(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(*got == payload);
}

TEST_F(ArtifactCacheTest, VersionOneEntryIsAMissThatVerifyNames) {
  // A version-1 entry, built the way that format wrote it: the same
  // layout with an FNV-1a payload checksum.
  const ScopedTelemetry telemetry_on;
  ArtifactCache cache(DirStr());
  const std::string key = "v1-key";
  const std::string payload = "a version-1 payload";
  std::string v1 = "SRCE";
  auto append = [&v1](auto value) {
    v1.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  append(uint32_t{1});
  append(static_cast<uint32_t>(key.size()));
  v1 += key;
  append(static_cast<uint64_t>(payload.size()));
  append(Fnv1a64(payload));
  v1 += payload;
  fs::create_directories(dir_);
  WriteAll(cache.EntryPath(key), v1);

  EXPECT_FALSE(cache.Get(key).has_value());
  const telemetry::Snapshot snap = telemetry::Capture();
  EXPECT_EQ(snap.Counter("cache.miss"), 1u);
  EXPECT_EQ(snap.Counter("cache.corrupt"), 1u);

  const std::vector<ArtifactCache::EntryInfo> report = cache.Verify();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_FALSE(report[0].valid);
  EXPECT_EQ(report[0].problem,
            "unsupported format version 1 (this build reads 2)");

  // Storing over it writes a current entry that hits.
  cache.Put(key, payload);
  const std::optional<std::string> got = cache.Get(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST_F(ArtifactCacheTest, ConcurrentPutsOfOneKeyLeaveAVerifiedEntry) {
  // Two cold opens of one workload store the same key at once. Each store
  // writes its own temp file, so the entry renamed into place is always
  // one whole payload, never an interleaving of several.
  ArtifactCache cache(DirStr());
  constexpr int kWriters = 6;
  std::vector<std::string> payloads;
  for (int t = 0; t < kWriters; ++t)
    payloads.emplace_back(1 << 20, static_cast<char>('a' + t));
  std::atomic<int> ready{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kWriters) std::this_thread::yield();
      for (int round = 0; round < 4; ++round) cache.Put("k", payloads[t]);
    });
  }
  for (std::thread& w : writers) w.join();
  const std::optional<std::string> got = cache.Get("k");
  ASSERT_TRUE(got.has_value());
  EXPECT_NE(std::find(payloads.begin(), payloads.end(), *got),
            payloads.end());
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".srce") << entry.path();
  }
  EXPECT_EQ(files, 1u);
}

TEST(UniqueTempPathTest, NeverRepeatsInOneProcess) {
  const std::string a = UniqueTempPath("dir/entry.srce");
  const std::string b = UniqueTempPath("dir/entry.srce");
  EXPECT_NE(a, b);
  EXPECT_EQ(a.rfind("dir/entry.srce.tmp." + std::to_string(::getpid()), 0),
            0u);
}

TEST_F(ArtifactCacheTest, StatsCountEntriesAndBytes) {
  ArtifactCache cache(DirStr());
  EXPECT_EQ(cache.GetStats().entries, 0u);  // missing dir == empty cache
  cache.Put("a", std::string(100, 'a'));
  cache.Put("b", std::string(200, 'b'));
  const ArtifactCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.bytes, 300u);  // payloads + headers
}

TEST_F(ArtifactCacheTest, VerifyReportsCorruptEntries) {
  ArtifactCache cache(DirStr());
  cache.Put("good", "payload");
  cache.Put("bad", std::string(512, 'b'));
  fs::resize_file(cache.EntryPath("bad"), 40);

  const std::vector<ArtifactCache::EntryInfo> report = cache.Verify();
  ASSERT_EQ(report.size(), 2u);
  size_t valid = 0, invalid = 0;
  for (const ArtifactCache::EntryInfo& info : report) {
    if (info.valid) {
      ++valid;
      EXPECT_TRUE(info.problem.empty());
    } else {
      ++invalid;
      EXPECT_FALSE(info.problem.empty());
    }
  }
  EXPECT_EQ(valid, 1u);
  EXPECT_EQ(invalid, 1u);
}

TEST_F(ArtifactCacheTest, EvictAllAndEvictToBudget) {
  ArtifactCache cache(DirStr());
  cache.Put("a", std::string(1000, 'a'));
  cache.Put("b", std::string(1000, 'b'));
  cache.Put("c", std::string(1000, 'c'));
  EXPECT_EQ(cache.GetStats().entries, 3u);

  // Shrink to roughly one entry's footprint: at least one must go.
  const uint64_t removed = cache.Evict(1200);
  EXPECT_GE(removed, 1u);
  EXPECT_LE(cache.GetStats().bytes, 1200u);

  cache.Evict(0);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST_F(ArtifactCacheTest, PutIntoUnwritableDirThrows) {
  if (::geteuid() == 0) GTEST_SKIP() << "root ignores directory modes";
  fs::create_directories(dir_);
  fs::permissions(dir_, fs::perms::owner_read | fs::perms::owner_exec);
  ArtifactCache cache(DirStr());
  EXPECT_THROW(cache.Put("k", "payload"), std::runtime_error);
  fs::permissions(dir_, fs::perms::owner_all);
}

}  // namespace
}  // namespace stemroot
