/// \file
/// The profiled-trace cache: a content-addressed, persistent memo of the
/// pipeline's generate->profile stages.
///
/// Generating a workload and profiling it on the hardware model dominate
/// the wall time of every CLI command and bench, yet both stages are pure
/// functions of (suite, workload, gpu spec, scale, seed) plus the code
/// revision. The cache exploits that: the key digests exactly those
/// inputs, the value is the profiled trace in the versioned SRTC encoding
/// (EncodeTrace in trace/chunked.h: header plus one chunk payload) stored
/// in a self-verifying ArtifactCache entry (common/cache.h), whose
/// checksum covers the whole payload. A warm `stemroot run` therefore
/// skips straight to cluster+sample+evaluate, byte-identical to the cold
/// run.
///
/// Key / invalidation contract (DESIGN.md "The profiled-trace cache"):
///
///   key = schema tag | srtc<format version> | build stamp |
///         suite | workload | gpu digest | scale | seed
///
///   - *gpu digest* hashes every numeric field of the GpuSpec AND the
///     TimingParams, not just the preset name, so DSE variants and custom
///     specs never collide.
///   - *build stamp* is the full BuildInfo (git hash, dirty flag,
///     compiler, build type, sanitizer). Any rebuild from different code
///     changes the key, so a stale artifact is unreachable rather than
///     detected late. Note the dirty-tree caveat: two different
///     uncommitted edits share a stamp; run `stemroot cache evict` when
///     iterating on generator/model code with a dirty tree.
///   - the SRTC format version retires whole generations of entries on
///     format changes.
///
/// Defects of any kind (truncation, checksum, key echo, version) are
/// plain misses by ArtifactCache contract: recompute, never crash, never
/// serve stale data.
///
/// The process-wide default cache is what Pipeline::GenerateProfiled
/// consults; the CLI and benches configure it from `--cache DIR|none`
/// (default bench_results/cache). The library default is *disabled* so
/// tests and embedders opt in explicitly.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/cache.h"
#include "hw/hardware_model.h"
#include "trace/trace.h"
#include "workloads/suite.h"

namespace stemroot::eval {

/// Schema tag versioning the key layout itself.
inline constexpr std::string_view kTraceCacheSchema = "stemroot-trace-cache-v1";

/// The resolved inputs of one generate->profile computation.
struct TraceCacheKey {
  std::string suite;       ///< suite token (workloads::ToName)
  std::string workload;    ///< workload name within the suite
  std::string gpu_digest;  ///< GpuDigest() of the profiling model
  double scale = 1.0;      ///< workload size scale
  uint64_t seed = 0;       ///< master seed (stage seeds derive from it)
  std::string build_stamp; ///< BuildStamp() of the producing binary

  /// Canonical pipe-delimited key string (content-hashed by the cache).
  std::string KeyString() const;
};

/// Digest of the full hardware-model configuration: every GpuSpec field
/// (including the name) and every TimingParams field.
std::string GpuDigest(const hw::HardwareModel& gpu);

/// Canonical build-stamp string of this binary's BuildInfo.
std::string BuildStamp();

/// Profiled-trace view over an ArtifactCache directory.
class TraceCache {
 public:
  explicit TraceCache(std::string dir);

  /// Decoded trace on a verified hit; std::nullopt on a miss, any entry
  /// defect, or an undecodable payload. Never throws.
  std::optional<KernelTrace> Load(const TraceCacheKey& key) const;

  /// Encode + store. Best effort: returns false (with a warning log)
  /// instead of throwing -- a failed store must never fail the run.
  bool Store(const TraceCacheKey& key, const KernelTrace& trace) const;

  /// The underlying entry store (stats/verify/evict for `stemroot cache`).
  const ArtifactCache& Artifacts() const { return cache_; }

 private:
  ArtifactCache cache_;
};

/// The committed default directory, shared by the CLI and benches:
/// "bench_results/cache".
std::string DefaultTraceCacheDir();

/// Configure the process-wide cache: a directory enables it, "" or "none"
/// disables it (the library default). Call before parallel regions.
void SetTraceCacheDir(const std::string& dir);

/// The process-wide cache, or nullptr when disabled.
const TraceCache* DefaultTraceCache();

}  // namespace stemroot::eval
