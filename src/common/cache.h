/// \file
/// Content-addressed artifact cache: a directory of self-verifying binary
/// entries keyed by a caller-supplied content key.
///
/// The cache memoizes expensive deterministic computations (the
/// generate->profile pipeline stages, see src/eval/trace_cache.h) across
/// process lifetimes. It is an *optimization layer*, never a source of
/// truth, so its failure contract is strict:
///
///   - A missing, truncated, checksum-mismatched, wrong-version or
///     wrong-key entry is a plain miss (Get returns std::nullopt); it
///     never throws and never returns partial data. Corrupt bytes on disk
///     can only cost a recompute.
///   - Put writes the entry to a temp file in the cache directory and
///     atomically renames it into place, so a crash mid-store leaves
///     either the old entry or none -- never a torn one. Concurrent
///     writers of the same key, in one process or several, are safe for
///     the same reason: each writes its own temp file (UniqueTempPath),
///     the last rename wins, and both renames are complete entries.
///   - Put failures (full disk, permissions) throw; callers that treat
///     the cache as best-effort catch and continue.
///
/// Entry format "SRCE", version 2, little-endian:
///
///   magic[4] | format_version u32 | key_len u32 | key bytes |
///   payload_len u64 | payload_xxh64 u64 | payload bytes
///
/// The full key string is echoed in the header and verified on Get, so a
/// digest collision in the file name cannot serve the wrong artifact, and
/// the XXH64 checksum covers the payload so bit rot falls back to
/// recompute.
///
/// When telemetry is enabled the cache emits `cache.hit`, `cache.miss`,
/// `cache.store`, `cache.read_bytes`, and `cache.write_bytes` counters.
/// These are *environmental* (they depend on what is on disk, like wall
/// times), so `stemroot compare` excludes the `cache.` prefix from its
/// determinism gate -- see src/eval/regress.h.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace stemroot {

/// FNV-1a over arbitrary bytes (the string overload in common/rng.h is
/// specified for stream ids; this one names cache entries and spills).
uint64_t Fnv1a64(std::string_view bytes);

/// XXH64 with seed 0: the integrity checksum of SRCE cache entries and of
/// SRTC file headers and chunks. It detects accidental corruption; it is
/// not cryptographic.
uint64_t Xxh64(std::string_view bytes);

/// Lowercase hex form of a 64-bit hash (16 chars), used for entry file
/// names.
std::string HexDigest64(uint64_t value);

/// A temp path beside `path` for writing it atomically (write, then
/// rename over `path`): `path` + ".tmp." + pid + "." + a process-wide
/// counter, so no two writers share one, in one process or across them.
std::string UniqueTempPath(const std::string& path);

/// A content-addressed cache rooted at one directory.
class ArtifactCache {
 public:
  /// One entry as seen by Stats/Verify/Evict sweeps.
  struct EntryInfo {
    std::string file;     ///< file name inside the cache directory
    uint64_t bytes = 0;   ///< file size on disk
    bool valid = false;   ///< header + checksum verified
    std::string problem;  ///< why `valid` is false ("" when valid)
  };

  struct Stats {
    uint64_t entries = 0;  ///< entry files present
    uint64_t bytes = 0;    ///< their total size
  };

  /// The cache directory is created lazily on the first Put.
  explicit ArtifactCache(std::string dir);

  const std::string& Dir() const { return dir_; }

  /// Look up `key`. Returns the payload on a verified hit, std::nullopt on
  /// a miss or on *any* entry defect (unreadable, truncated, bad magic or
  /// version, key mismatch, checksum mismatch). Never throws.
  std::optional<std::string> Get(const std::string& key) const;

  /// Store `payload` under `key` (atomic temp-file + rename; replaces any
  /// existing entry). Throws std::runtime_error on I/O failure.
  void Put(const std::string& key, std::string_view payload) const;

  /// True when a verified entry for `key` exists (same checks as Get,
  /// without returning the payload bytes).
  bool Contains(const std::string& key) const { return Get(key).has_value(); }

  /// Entry count and total bytes. A missing directory is an empty cache.
  Stats GetStats() const;

  /// Verify every entry's header and checksum. Sorted by file name so the
  /// report is deterministic.
  std::vector<EntryInfo> Verify() const;

  /// Remove entries, oldest first by mtime, until the cache holds at most
  /// `max_bytes` (0 = remove everything). Returns the number of entries
  /// removed. Never throws; undeletable files are skipped.
  uint64_t Evict(uint64_t max_bytes = 0) const;

  /// The file path an entry for `key` lives at (whether or not it exists).
  std::string EntryPath(const std::string& key) const;

 private:
  std::string dir_;
};

}  // namespace stemroot
