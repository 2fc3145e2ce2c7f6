/// \file
/// Process-resource observability (DESIGN.md §15): deterministic logical
/// memory accounting plus on-demand physical RSS/CPU sampling.
///
/// The pipeline has rich *time* observability (telemetry spans, trace
/// events, latency histograms, the journal) but memory — the resource
/// that actually caps simulator scale — was invisible. This module adds
/// two complementary views:
///
/// **Logical accounting** (`Account` / `AccountPeak`) charges byte counts
/// to named categories ("trace", "root", "plan", "eval", "sim", "cache",
/// "service.session") at the sites that own the big allocations. The
/// numbers are *logical*: computed from container sizes, not from the
/// allocator, so they are deterministic at any thread count and can be
/// compare-gated like telemetry counters. Two primitives keep the peaks
/// schedule-invariant:
///
/// - `Account(category, bytes)` is charge-only: the category's running
///   total only grows, so its peak equals the final sum regardless of the
///   order concurrent charges land in. Use it for monotone owners (trace
///   storage, cache payloads).
/// - `AccountPeak(category, bytes)` folds a per-call byte count into the
///   category peak with max(). Each call's value must itself be
///   deterministic (derived from seed/config/index, never from thread
///   ids or timing); max over a fixed call set is order-independent. Use
///   it for transient concurrent state (per-rep cluster/plan scratch,
///   per-point simulators, per-session streaming state).
///
/// Categories prefixed "cache" or "service" are environmental (warmth-
/// and load-dependent) and are excluded from compare/regress gating,
/// mirroring the `cache.*`/`service.*` telemetry-counter exclusions.
///
/// **Physical sampling** reads `/proc/self/statm`, `/proc/self/status`
/// (VmRSS/VmHWM) and getrusage into monotonic high-water atomics on
/// demand (`SamplePhysical`): when a manifest is stamped, on every
/// `stats` reply, and when a served session closes. The peak needs no
/// background thread: the kernel keeps its own high water (VmHWM,
/// ru_maxrss). Physical numbers are environmental: they go into the
/// manifest `mem` block and the `stats` reply's `mem` object but never
/// into fingerprints or compare gates.
/// Missing or truncated `/proc` files are absent-not-fatal (containers
/// and non-Linux hosts degrade to getrusage or to nothing).
///
/// **Cost contract.** Accounting rides the telemetry switch
/// (`telemetry::Enabled()`, the process switch; a thread's muted
/// `telemetry::Scope` still charges). When it is off, `Account` and
/// `AccountPeak` check one relaxed atomic and return -- the same contract
/// as telemetry/trace_events/journal, pinned by BM_InstrumentationOff.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace stemroot::resource {

// ---------------------------------------------------------------------------
// Logical accounting (deterministic, compare-gated)
// ---------------------------------------------------------------------------

/// Charge `bytes` to `category`'s running total (no-op when telemetry is
/// off; ResetAccounting() starts a fresh run).
/// Charge-only: totals never decrease, so the category peak equals the
/// final sum at any thread count.
void Account(std::string_view category, uint64_t bytes);

/// Fold one deterministic per-call byte count into `category`'s peak
/// with max() (no-op when telemetry is off). `bytes` must be derived from
/// seed/config/index only — never from scheduling.
void AccountPeak(std::string_view category, uint64_t bytes);

/// Category -> peak bytes observed so far. Deterministic at any thread
/// count when every charge honored the rules above.
std::map<std::string, uint64_t> LogicalPeaks();

/// Clear all logical categories (tests, and the service between runs).
void ResetAccounting();

// ---------------------------------------------------------------------------
// Physical sampling (environmental, never compare-gated)
// ---------------------------------------------------------------------------

/// One physical observation. Every source is optional: a field is
/// std::nullopt when its `/proc` file (or getrusage) was unavailable or
/// unparseable — absent, not fatal.
struct PhysicalSample {
  std::optional<uint64_t> rss_bytes;      ///< current RSS (statm or VmRSS)
  std::optional<uint64_t> hwm_bytes;      ///< VmHWM (kernel high-water RSS)
  std::optional<uint64_t> max_rss_bytes;  ///< getrusage ru_maxrss
  double user_cpu_seconds = 0.0;          ///< getrusage ru_utime (0 if absent)
  double system_cpu_seconds = 0.0;        ///< getrusage ru_stime (0 if absent)
};

/// Parse `/proc/self/statm` text ("size resident shared ..." in pages):
/// resident pages * page_size_bytes. std::nullopt on truncated or
/// malformed input, including a product past 2^64 - 1. Locale-proof
/// (common/str ParseInt).
std::optional<uint64_t> ParseStatmRssBytes(std::string_view text,
                                           uint64_t page_size_bytes);

/// The VmRSS/VmHWM lines of `/proc/self/status` ("VmRSS:   123 kB").
/// Each field is independently optional; a truncated file yields
/// whatever lines were intact, and a value past 2^64 - 1 bytes is absent.
struct StatusFields {
  std::optional<uint64_t> vm_rss_bytes;
  std::optional<uint64_t> vm_hwm_bytes;
};
StatusFields ParseStatusText(std::string_view text);

/// Read + parse the two proc files (test seam: any paths). Missing files
/// leave the fields nullopt. Does not touch getrusage or the process
/// high-water state.
PhysicalSample ReadProcFiles(const std::string& statm_path,
                             const std::string& status_path,
                             uint64_t page_size_bytes);

/// Take one live observation of this process (/proc/self + getrusage)
/// and fold it into the monotonic high-water state below. Safe to call
/// from any thread at any time. Emits a warn-severity "mem_highwater"
/// journal event when the peak beats the last reported one by >= 20%
/// (visible, never gated -- regress gates journal errors only).
PhysicalSample SamplePhysical();

/// Highest RSS ever observed for this process: max over VmHWM,
/// ru_maxrss, and every sampled VmRSS. 0 when no source was available.
/// Folds one fresh SamplePhysical() first, so the value is current.
uint64_t PeakRssBytes();

/// Cumulative physical-side statistics since process start.
struct Stats {
  uint64_t samples = 0;           ///< SamplePhysical() calls so far
  uint64_t current_rss_bytes = 0;
  uint64_t peak_rss_bytes = 0;    ///< monotonic high water
  double user_cpu_seconds = 0.0;  ///< from the latest sample
  double system_cpu_seconds = 0.0;
};
Stats GetStats();

}  // namespace stemroot::resource
