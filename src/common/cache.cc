#include "common/cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "common/telemetry.h"

namespace stemroot {

namespace {

constexpr char kMagic[4] = {'S', 'R', 'C', 'E'};
constexpr uint32_t kFormatVersion = 2;
constexpr const char* kEntrySuffix = ".srce";
constexpr uint32_t kMaxKeyLen = 1u << 16;

// SRCE header fields and Xxh64's word reads are native-order memcpys.
static_assert(std::endian::native == std::endian::little,
              "SRCE entries and Xxh64 assume a little-endian host");

// XXH64 primes, from the public xxHash specification.
constexpr uint64_t kXxPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kXxPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kXxPrime5 = 0x27D4EB2F165667C5ULL;

template <typename T>
T ReadLe(const char* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

uint64_t XxRound(uint64_t acc, uint64_t lane) {
  return std::rotl(acc + lane * kXxPrime2, 31) * kXxPrime1;
}

uint64_t XxMerge(uint64_t hash, uint64_t acc) {
  return (hash ^ XxRound(0, acc)) * kXxPrime1 + kXxPrime4;
}

/// Fixed-size portion of the entry header, written/read as discrete
/// little-endian fields (memcpy through char buffers keeps this free of
/// alignment and padding concerns).
struct Header {
  uint32_t format_version = 0;
  uint32_t key_len = 0;
  uint64_t payload_len = 0;
  uint64_t payload_hash = 0;
};

template <typename T>
void AppendPod(std::string& out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out.append(buf, sizeof(T));
}

template <typename T>
bool ReadPod(std::string_view bytes, size_t& pos, T& out) {
  if (bytes.size() - pos < sizeof(T)) return false;
  std::memcpy(&out, bytes.data() + pos, sizeof(T));
  pos += sizeof(T);
  return true;
}

/// Parse + verify one entry file's bytes. On success stores the offset
/// the payload starts at in `payload_pos` (when non-null) and returns
/// true; otherwise stores a reason in `problem`.
bool VerifyEntryBytes(std::string_view bytes, const std::string* want_key,
                      size_t* payload_pos, std::string* problem) {
  size_t pos = 0;
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    *problem = "bad magic";
    return false;
  }
  pos = sizeof(kMagic);
  Header h;
  if (!ReadPod(bytes, pos, h.format_version) ||
      !ReadPod(bytes, pos, h.key_len)) {
    *problem = "truncated header";
    return false;
  }
  if (h.format_version != kFormatVersion) {
    *problem = "unsupported format version " +
               std::to_string(h.format_version) + " (this build reads " +
               std::to_string(kFormatVersion) + ")";
    return false;
  }
  if (h.key_len == 0 || h.key_len > kMaxKeyLen ||
      bytes.size() - pos < h.key_len) {
    *problem = "truncated or implausible key";
    return false;
  }
  const std::string_view key = bytes.substr(pos, h.key_len);
  pos += h.key_len;
  if (want_key != nullptr && key != *want_key) {
    *problem = "key mismatch (digest collision or renamed entry)";
    return false;
  }
  if (!ReadPod(bytes, pos, h.payload_len) ||
      !ReadPod(bytes, pos, h.payload_hash)) {
    *problem = "truncated header";
    return false;
  }
  if (bytes.size() - pos != h.payload_len) {
    *problem = "payload length mismatch";
    return false;
  }
  if (Xxh64(bytes.substr(pos)) != h.payload_hash) {
    *problem = "payload checksum mismatch";
    return false;
  }
  if (payload_pos != nullptr) *payload_pos = pos;
  return true;
}

/// The whole of a regular file, in one sized read. std::nullopt when it
/// cannot be opened or read, or is not a regular file.
std::optional<std::string> ReadFileBytes(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::optional<std::string> bytes;
  struct stat st;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    bytes.emplace(static_cast<size_t>(st.st_size), '\0');
    size_t got = 0;
    while (got < bytes->size()) {
      const ssize_t n = ::read(fd, bytes->data() + got, bytes->size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      got += static_cast<size_t>(n);
    }
    // A short read leaves a shorter entry, which verification rejects.
    bytes->resize(got);
  }
  ::close(fd);
  return bytes;
}

bool IsEntryFile(const std::filesystem::directory_entry& entry) {
  if (!entry.is_regular_file()) return false;
  const std::string name = entry.path().filename().string();
  return name.size() > std::strlen(kEntrySuffix) &&
         name.rfind(kEntrySuffix) == name.size() - std::strlen(kEntrySuffix);
}

}  // namespace

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

uint64_t Xxh64(std::string_view bytes) {
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  uint64_t hash = kXxPrime5;
  if (bytes.size() >= 32) {
    uint64_t v1 = kXxPrime1 + kXxPrime2;
    uint64_t v2 = kXxPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kXxPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = XxRound(v1, ReadLe<uint64_t>(p));
      v2 = XxRound(v2, ReadLe<uint64_t>(p + 8));
      v3 = XxRound(v3, ReadLe<uint64_t>(p + 16));
      v4 = XxRound(v4, ReadLe<uint64_t>(p + 24));
    }
    hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
           std::rotl(v4, 18);
    hash = XxMerge(XxMerge(XxMerge(XxMerge(hash, v1), v2), v3), v4);
  }
  hash += bytes.size();
  for (; end - p >= 8; p += 8)
    hash = std::rotl(hash ^ XxRound(0, ReadLe<uint64_t>(p)), 27) * kXxPrime1 +
           kXxPrime4;
  if (end - p >= 4) {
    hash = std::rotl(hash ^ ReadLe<uint32_t>(p) * kXxPrime1, 23) * kXxPrime2 +
           kXxPrime3;
    p += 4;
  }
  for (; p < end; ++p)
    hash = std::rotl(hash ^ static_cast<unsigned char>(*p) * kXxPrime5, 11) *
           kXxPrime1;
  hash ^= hash >> 33;
  hash *= kXxPrime2;
  hash ^= hash >> 29;
  hash *= kXxPrime3;
  hash ^= hash >> 32;
  return hash;
}

std::string UniqueTempPath(const std::string& path) {
  static std::atomic<uint64_t> next{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(next.fetch_add(1, std::memory_order_relaxed));
}

std::string HexDigest64(uint64_t value) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[value & 0xF];
    value >>= 4;
  }
  return out;
}

ArtifactCache::ArtifactCache(std::string dir) : dir_(std::move(dir)) {}

std::string ArtifactCache::EntryPath(const std::string& key) const {
  return (std::filesystem::path(dir_) /
          (HexDigest64(Fnv1a64(key)) + kEntrySuffix))
      .string();
}

std::optional<std::string> ArtifactCache::Get(const std::string& key) const {
  std::optional<std::string> bytes = ReadFileBytes(EntryPath(key));
  if (!bytes) {
    telemetry::Count("cache.miss");
    return std::nullopt;
  }
  size_t payload_pos = 0;
  std::string problem;
  if (!VerifyEntryBytes(*bytes, &key, &payload_pos, &problem)) {
    // A defective entry is a miss by contract: recompute, never crash,
    // never serve stale or torn data.
    telemetry::Count("cache.miss");
    telemetry::Count("cache.corrupt");
    return std::nullopt;
  }
  // The payload is the tail of the bytes read: drop the header in place
  // rather than copy the payload out.
  bytes->erase(0, payload_pos);
  telemetry::Count("cache.hit");
  telemetry::Count("cache.read_bytes", bytes->size());
  return bytes;
}

void ArtifactCache::Put(const std::string& key,
                        std::string_view payload) const {
  if (key.empty() || key.size() > kMaxKeyLen)
    throw std::runtime_error("ArtifactCache: bad key length");

  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort; open reports

  std::string entry;
  entry.reserve(sizeof(kMagic) + sizeof(Header) + key.size() +
                payload.size());
  entry.append(kMagic, sizeof(kMagic));
  AppendPod(entry, kFormatVersion);
  AppendPod(entry, static_cast<uint32_t>(key.size()));
  entry += key;
  AppendPod(entry, static_cast<uint64_t>(payload.size()));
  AppendPod(entry, Xxh64(payload));
  entry.append(payload.data(), payload.size());

  // Temp file in the same directory (rename is only atomic within one
  // filesystem), unique per store so concurrent stores cannot collide.
  const std::string final_path = EntryPath(key);
  const std::string tmp_path = UniqueTempPath(final_path);
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error("ArtifactCache: cannot open " + tmp_path);
    out.write(entry.data(), static_cast<std::streamsize>(entry.size()));
    out.flush();
    if (!out) {
      out.close();
      std::filesystem::remove(tmp_path, ec);
      throw std::runtime_error("ArtifactCache: write failed: " + tmp_path);
    }
  }
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    throw std::runtime_error("ArtifactCache: rename into " + final_path +
                             " failed");
  }
  telemetry::Count("cache.store");
  telemetry::Count("cache.write_bytes", payload.size());
}

ArtifactCache::Stats ArtifactCache::GetStats() const {
  Stats stats;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_, ec)) {
    if (!IsEntryFile(entry)) continue;
    ++stats.entries;
    stats.bytes += entry.file_size(ec);
  }
  return stats;
}

std::vector<ArtifactCache::EntryInfo> ArtifactCache::Verify() const {
  std::vector<EntryInfo> report;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_, ec)) {
    if (!IsEntryFile(entry)) continue;
    EntryInfo info;
    info.file = entry.path().filename().string();
    info.bytes = entry.file_size(ec);
    const std::optional<std::string> bytes = ReadFileBytes(entry.path());
    if (!bytes) {
      info.problem = "unreadable";
    } else {
      // No expected key here: Verify checks self-consistency (header +
      // checksum); key/digest agreement is re-checked per lookup in Get.
      info.valid = VerifyEntryBytes(*bytes, nullptr, nullptr, &info.problem);
    }
    report.push_back(std::move(info));
  }
  std::sort(report.begin(), report.end(),
            [](const EntryInfo& a, const EntryInfo& b) {
              return a.file < b.file;
            });
  return report;
}

uint64_t ArtifactCache::Evict(uint64_t max_bytes) const {
  struct Candidate {
    std::filesystem::path path;
    uint64_t bytes = 0;
    std::filesystem::file_time_type mtime;
  };
  std::vector<Candidate> candidates;
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_, ec)) {
    if (!IsEntryFile(entry)) continue;
    Candidate c;
    c.path = entry.path();
    c.bytes = entry.file_size(ec);
    c.mtime = entry.last_write_time(ec);
    total += c.bytes;
    candidates.push_back(std::move(c));
  }
  // Oldest first; tie-break on path so eviction order is deterministic.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  uint64_t removed = 0;
  for (const Candidate& c : candidates) {
    if (total <= max_bytes) break;
    if (std::filesystem::remove(c.path, ec) && !ec) {
      total -= c.bytes;
      ++removed;
    }
  }
  return removed;
}

}  // namespace stemroot
