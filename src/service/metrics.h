/// \file
/// Live service introspection: per-verb request metrics and the
/// aggregate view the `stats` verb reports (DESIGN.md §14).
///
/// ServiceMetrics is the per-Service-instance observability surface:
/// each protocol verb (open/feed/query/plan/eval/close) gets a
/// log-bucketed latency histogram (common/histogram.h LogHistogram) plus
/// request and error counters — all wait-free relaxed atomics, so
/// recording never blocks a session operation and the stats verb sees a
/// live view without quiescing.
///
/// **Always on.** A Service records every verb; recording is a few
/// relaxed atomic adds, small beside any verb's work. The batch
/// `stemroot run` path (the static Service::RunBatch) never touches it,
/// so batch manifests do not depend on this subsystem.
///
/// **Counter registry.** Telemetry counters under the `service.*` prefix
/// are environmental (excluded from the compare gate) and must be
/// registered here: IsRegisteredServiceCounter() answers for the closed
/// set that `stemroot validate manifest` enforces, so a typo'd or
/// undocumented service counter fails CI instead of silently escaping the
/// gates.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"

namespace stemroot::service {

/// The six session verbs of the typed Service API (and the line
/// protocol). Protocol-only ops (stats, health, shutdown) are not
/// latency-tracked: they never touch session state.
enum class Verb : uint8_t { kOpen, kFeed, kQuery, kPlan, kEval, kClose };
inline constexpr size_t kNumVerbs = 6;

/// Canonical lowercase wire token ("open", "feed", ...).
const char* VerbName(Verb verb);

/// One verb's aggregate view, as the stats response reports it (its
/// `verbs.<verb>` object). Quantiles are nearest-rank over the log buckets
/// (a bucket upper bound, i.e. within one growth factor of exact);
/// max_us is exact.
struct VerbStats {
  std::string verb;
  uint64_t requests = 0;
  uint64_t errors = 0;
  double total_us = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// Everything the stats verb reports, assembled by
/// Service::GetStats() under no lock (all relaxed-atomic reads).
struct ServiceStats {
  double uptime_seconds = 0.0;
  uint64_t open_sessions = 0;
  uint64_t max_sessions = 0;
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t feed_invocations = 0;
  uint64_t early_stops = 0;
  uint64_t requests_total = 0;  ///< sum over verbs
  uint64_t errors_total = 0;    ///< sum over verbs
  std::vector<VerbStats> verbs;  ///< kNumVerbs entries, enum order
  /// journal::GetStats() at assembly time (zeros when no journal).
  uint64_t journal_emitted = 0;
  uint64_t journal_dropped = 0;
  uint64_t journal_errors = 0;
  /// resource::GetStats()/LogicalPeaks() at assembly time (DESIGN.md
  /// §15): physical RSS (environmental) and the logical per-category
  /// peaks. All zeros/empty when the resource subsystem never ran.
  uint64_t process_rss_bytes = 0;
  uint64_t process_hwm_bytes = 0;      ///< monotonic high water
  uint64_t resource_samples = 0;
  double process_cpu_user_seconds = 0.0;
  double process_cpu_system_seconds = 0.0;
  std::map<std::string, uint64_t> mem_logical;  ///< category -> peak bytes
};

/// Per-verb latency histograms and request/error counters. Thread-safe;
/// every mutator is wait-free.
class ServiceMetrics {
 public:
  ServiceMetrics() = default;

  ServiceMetrics(const ServiceMetrics&) = delete;
  ServiceMetrics& operator=(const ServiceMetrics&) = delete;

  /// Record one completed request. `ok` is false when the operation
  /// threw — the error still contributes its latency.
  void RecordRequest(Verb verb, double latency_us, bool ok);

  uint64_t Requests(Verb verb) const {
    return requests_[static_cast<size_t>(verb)].load(
        std::memory_order_relaxed);
  }
  uint64_t Errors(Verb verb) const {
    return errors_[static_cast<size_t>(verb)].load(
        std::memory_order_relaxed);
  }
  const LogHistogram& Latency(Verb verb) const {
    return latency_[static_cast<size_t>(verb)];
  }

  /// Live aggregate of one verb (relaxed reads; counts may trail a
  /// racing recorder by a request — fine for monitoring).
  VerbStats GetVerb(Verb verb) const;
  /// All verbs in enum order.
  std::vector<VerbStats> AllVerbs() const;

 private:
  std::array<LogHistogram, kNumVerbs> latency_;
  std::array<std::atomic<uint64_t>, kNumVerbs> requests_{};
  std::array<std::atomic<uint64_t>, kNumVerbs> errors_{};
};

/// Whether `name` is in the closed set of telemetry counter names the
/// service may emit under the environmental `service.*` prefix. Adding a
/// counter to the service REQUIRES adding it to that set (metrics.cc) —
/// `stemroot validate manifest` rejects any `service.*` name outside it.
bool IsRegisteredServiceCounter(std::string_view name);

}  // namespace stemroot::service
