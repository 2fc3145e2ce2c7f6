#include "eval/trace_cache.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/build_info.h"
#include "common/json.h"
#include "common/log.h"
#include "common/resource.h"
#include "common/telemetry.h"
#include "trace/chunked.h"

namespace stemroot::eval {

namespace {

void AppendField(std::string& out, std::string_view value) {
  out += '|';
  out += value;
}

}  // namespace

std::string TraceCacheKey::KeyString() const {
  std::string key(kTraceCacheSchema);
  AppendField(key, "srtc" + std::to_string(ChunkedTraceFormatVersion()));
  AppendField(key, build_stamp);
  AppendField(key, suite);
  AppendField(key, workload);
  AppendField(key, gpu_digest);
  // json::Number renders doubles shortest-round-trip and locale-free, so
  // the same scale always digests to the same key.
  AppendField(key, "scale=" + json::Number(scale));
  AppendField(key, "seed=" + std::to_string(seed));
  return key;
}

std::string GpuDigest(const hw::HardwareModel& gpu) {
  const hw::GpuSpec& s = gpu.Spec();
  const hw::TimingParams& t = gpu.Params();
  std::string canon = "gpu-spec-v1";
  AppendField(canon, s.name);
  AppendField(canon, std::to_string(s.num_sms));
  AppendField(canon, json::Number(s.clock_ghz));
  AppendField(canon, std::to_string(s.max_warps_per_sm));
  AppendField(canon, std::to_string(s.warp_size));
  AppendField(canon, json::Number(s.issue_width));
  AppendField(canon, std::to_string(s.l1_bytes));
  AppendField(canon, std::to_string(s.l2_bytes));
  AppendField(canon, std::to_string(s.line_bytes));
  AppendField(canon, json::Number(s.dram_bw_gbps));
  AppendField(canon, json::Number(s.dram_latency_ns));
  AppendField(canon, json::Number(s.l2_latency_ns));
  AppendField(canon, json::Number(s.fp16_speedup));
  AppendField(canon, json::Number(s.launch_overhead_us));
  AppendField(canon, json::Number(t.jitter_base));
  AppendField(canon, json::Number(t.jitter_mem_scale));
  AppendField(canon, json::Number(t.overlap_slack));
  AppendField(canon, json::Number(t.coalesce_best));
  AppendField(canon, json::Number(t.coalesce_worst));
  return HexDigest64(Fnv1a64(canon));
}

std::string BuildStamp() {
  const BuildInfo& b = GetBuildInfo();
  std::string stamp = b.git_hash;
  if (b.git_dirty) stamp += "+dirty";
  AppendField(stamp, b.compiler);
  AppendField(stamp, b.build_type);
  AppendField(stamp, b.sanitizer);
  return stamp;
}

TraceCache::TraceCache(std::string dir) : cache_(std::move(dir)) {}

std::optional<KernelTrace> TraceCache::Load(const TraceCacheKey& key) const {
  const std::optional<std::string> payload = cache_.Get(key.KeyString());
  if (!payload) return std::nullopt;
  // Encoded payload bytes held while decoding; the encoding is canonical,
  // so a warm Load charges exactly what the cold Store did.
  resource::Account("cache", payload->size());
  try {
    return DecodeTrace(*payload);
  } catch (const std::exception& e) {
    // The entry checksum passed but the payload is not one well-formed
    // trace (e.g. a hand-edited or foreign entry). Same contract as any
    // other defect: recompute.
    telemetry::Count("cache.corrupt");
    Warn("trace cache: undecodable entry treated as a miss: %s", e.what());
    return std::nullopt;
  }
}

bool TraceCache::Store(const TraceCacheKey& key,
                       const KernelTrace& trace) const {
  try {
    std::string payload = EncodeTrace(trace);
    resource::Account("cache", payload.size());
    cache_.Put(key.KeyString(), std::move(payload));
    return true;
  } catch (const std::exception& e) {
    Warn("trace cache: store failed, continuing uncached: %s", e.what());
    return false;
  }
}

std::string DefaultTraceCacheDir() { return "bench_results/cache"; }

namespace {

/// The process-wide cache pointer. Readers (parallel suite workers) load
/// it lock-free; SetTraceCacheDir publishes replacements under a mutex and
/// retires prior instances into a still-reachable list instead of deleting
/// them, so a concurrent reader can never observe a dangling pointer (and
/// leak checkers see reachable memory, not a leak).
std::atomic<const TraceCache*> g_default{nullptr};

std::mutex& RetireMutex() {
  static std::mutex m;
  return m;
}

std::vector<std::unique_ptr<TraceCache>>& RetiredCaches() {
  static auto* retired = new std::vector<std::unique_ptr<TraceCache>>();
  return *retired;
}

}  // namespace

void SetTraceCacheDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(RetireMutex());
  const TraceCache* next =
      (dir.empty() || dir == "none") ? nullptr : new TraceCache(dir);
  const TraceCache* prev =
      g_default.exchange(next, std::memory_order_acq_rel);
  if (prev != nullptr)
    RetiredCaches().emplace_back(const_cast<TraceCache*>(prev));
}

const TraceCache* DefaultTraceCache() {
  return g_default.load(std::memory_order_acquire);
}

}  // namespace stemroot::eval
