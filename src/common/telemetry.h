/// \file
/// Process-wide pipeline telemetry: RAII wall-time spans, monotonic
/// counters, and value distributions. The run manifest (eval/manifest.h)
/// is the one artifact that carries them out of the process.
///
/// Design constraints (DESIGN.md "Telemetry and the Pipeline facade"):
///
/// - **Off by default, near-zero when off.** Every entry point checks one
///   relaxed atomic and returns immediately when telemetry is disabled, so
///   instrumented hot paths (the ROOT recursion, the KKT solver, per-plan
///   bookkeeping) cost a load+branch in normal runs. Enable with
///   SetEnabled(true) (the CLI does this for --manifest/--ledger; every
///   bench Session does it).
/// - **Determinism.** Counters and distributions are schedule-invariant:
///   every thread records into its own mutex-guarded buffer, and Capture()
///   merges buffers into order-independent aggregates (integer sums for
///   counters; a sorted value multiset for distributions, whose mean is
///   summed in sorted order). Instrumentation must never count
///   schedule-dependent events (chunks, steals, thread ids) -- only facts
///   derived from (seed, index) like the rest of the library. Under that
///   rule the counters/distributions sections of a manifest are
///   byte-identical at any thread count; only span wall times (and span
///   parentage, which reflects per-thread nesting) may vary.
/// - **TSan cleanliness.** All shared state is mutex-protected; the
///   per-thread buffer mutex is uncontended on the hot path. Capture() and
///   Reset() must not race a parallel region that is still recording
///   (call them between regions, as the CLI and benches do).
/// - **Scopes.** A Scope on a Sink makes the calling thread, and the pool
///   lanes its parallel regions fan out to, record into that sink as well
///   as into the process buffers. Concurrent callers each read their own
///   activity from their own sink, with no process-wide lock; a null scope
///   mutes the thread.
///
/// Spans aggregate by (name, parent) where parent is the innermost open
/// span on the same thread ("" at top level -- e.g. inside a worker-thread
/// task). Use Span for pipeline stages, Count/Record for everything else.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace stemroot::telemetry {

/// Turn collection on or off (default off). Flipping the switch does not
/// clear existing data; pair with Reset() for a fresh run.
void SetEnabled(bool enabled);
bool Enabled();

/// Add `delta` to the named monotonic counter (no-op when disabled).
void Count(std::string_view name, uint64_t delta = 1);

/// Record one observation of the named distribution. Non-finite values are
/// dropped (they would poison the deterministic sorted merge).
void Record(std::string_view name, double value);

/// Recording storage shared by thread buffers and sinks (telemetry.cc).
struct Buffer;

/// RAII wall-time span. Nest freely; the innermost open span on the same
/// thread becomes the parent. Inert when telemetry is disabled at
/// construction time. Tolerates SetEnabled flipping mid-span: a span that
/// opened while enabled always pops its stack entry, but only records an
/// aggregate if telemetry is still enabled at destruction.
///
/// When the trace-event subsystem (common/trace_events.h) is enabled, a
/// Span additionally emits a begin/end trace-event pair, independent of
/// the telemetry switch -- so `--trace` sees the pipeline stages even
/// without `--manifest`.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  std::string parent_;
  std::chrono::steady_clock::time_point start_;
  Buffer* sink_ = nullptr;  ///< the scope's sink at construction, if any
  bool active_ = false;  ///< telemetry recording (stack entry pushed)
  bool traced_ = false;  ///< trace-event begin emitted
};

/// Aggregated wall-time statistics of one (name, parent) span identity.
struct SpanStats {
  std::string name;
  std::string parent;
  uint64_t count = 0;
  double total_us = 0.0;
};

/// Five-number summary of a distribution (computed over the sorted value
/// multiset; p50/p99 are nearest-rank quantiles).
struct DistSummary {
  uint64_t count = 0;
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;

  bool operator==(const DistSummary&) const = default;
};

/// A merged, immutable view of everything recorded so far.
class Snapshot {
 public:
  /// Counter name -> cumulative value, sorted by name.
  const std::map<std::string, uint64_t>& Counters() const {
    return counters_;
  }
  /// Distribution name -> sorted observations.
  const std::map<std::string, std::vector<double>>& Distributions() const {
    return values_;
  }
  /// Span aggregates keyed by (name, parent), sorted.
  const std::map<std::pair<std::string, std::string>, SpanStats>& Spans()
      const {
    return spans_;
  }

  uint64_t Counter(std::string_view name) const;  ///< 0 when absent
  DistSummary Dist(std::string_view name) const;  ///< zeros when absent
  /// Dist() of every distribution, sorted by name.
  std::map<std::string, DistSummary> Summaries() const;
  /// True when a span with this name was recorded under any parent.
  bool HasSpan(std::string_view name) const;

 private:
  friend Snapshot Capture();
  friend class Sink;

  std::map<std::string, uint64_t> counters_;
  std::map<std::string, std::vector<double>> values_;
  std::map<std::pair<std::string, std::string>, SpanStats> spans_;
};

/// Merge every live thread buffer into the central aggregate and return a
/// copy. Cumulative: repeated captures include everything since the last
/// Reset(). Do not call while a parallel region is recording.
Snapshot Capture();

/// Clear the central aggregate and all live thread buffers. Sinks are
/// private to their owners and keep their contents.
void Reset();

/// A private aggregate of counters, distributions and spans, filled by
/// the threads running under a Scope on it. A resident service gives each
/// session one, so concurrent sessions' manifests each hold exactly their
/// own activity without serializing on anything process-wide.
class Sink {
 public:
  Sink();
  ~Sink();

  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  /// Everything recorded into this sink so far, distributions sorted.
  /// Safe while scopes on it are recording.
  Snapshot Capture() const;

 private:
  friend class Scope;

  std::unique_ptr<Buffer> buffer_;
};

/// A thread's recording target: the process buffers only, the process
/// buffers plus one sink, or nothing. Opaque; Scope::Current() reads it
/// and Scope(Target) installs it on another thread.
class Target {
 private:
  friend class Scope;

  Buffer* buffer_ = nullptr;  ///< nullptr = the process buffers only
};

/// RAII: while alive, the calling thread's Count, Record and Span record
/// into the process buffers exactly as without it, and also into `sink`.
/// Scope(nullptr) mutes the thread instead: it records nothing, neither
/// into the process buffers nor into any sink, while trace events still
/// flow. The innermost scope wins and destruction restores the previous
/// target, so scopes nest.
///
/// A scope covers the pool lanes its thread fans out to: ParallelFor and
/// ParallelLanes read Current() on the calling thread and install it on
/// every lane for the chunks that lane runs (common/parallel.cc). Other
/// threads are unaffected. A Span takes its sink when it opens, so close
/// spans before the scope that covers them ends.
class Scope {
 public:
  explicit Scope(Sink* sink);
  explicit Scope(Target target);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// The calling thread's current target.
  static Target Current();

 private:
  Buffer* saved_;
};

}  // namespace stemroot::telemetry
