/// \file
/// stemroot::service::Service — the resident, multi-session sampling API
/// (the ROADMAP's "library first, CLI second" north star; DESIGN.md §13).
///
/// The batch pipeline profiles everything, clusters once and samples
/// once. A Service session inverts that: invocations arrive in
/// FeedFromSource() chunks, each kernel's cluster structure updates online
/// (core::StreamingRoot), and Query() recomputes the STEM allocation and
/// error bounds on the data seen so far — so a client can stop profiling
/// the moment `converged` reports that the session's epsilon is already
/// met (Ekman-style repeated subsampling: the bound tightens as ~1/sqrt n
/// while the CoV estimate stabilizes).
///
/// Every request and response is a typed struct; no stringly-typed flags
/// cross this boundary. The line-delimited JSON protocol in
/// service/protocol.h is a thin translation onto this API.
///
/// **Replay-equivalence contract.** The streaming structure is advisory:
/// it powers Query's cheap bounds and the early-stop decision. Plan and
/// metric materialization (BuildPlan/Evaluate) always re-run the
/// canonical batch sampler over the session's accumulated trace via
/// eval::Pipeline::FromTrace with the session's seed — so feeding a full
/// trace in one chunk (or any chunking, in timeline order) reproduces the
/// batch Pipeline results byte-for-byte, at any thread count. Pinned by
/// tests/service/service_test.cc.
///
/// **Threading.** A Service is long-lived and thread-safe: sessions are
/// independently locked, so every verb on different sessions proceeds in
/// parallel. Each session owns a telemetry::Sink; the operations that run
/// instrumented pipeline stages (OpenSession's generate+profile,
/// BuildPlan, Evaluate) run under a telemetry::Scope on it, which the
/// thread pool carries to every lane, so each session's manifest holds
/// exactly its own counters and stages. FeedFromSource and Query record
/// nothing but the service.* counters.
///
/// **Manifests.** CloseSession returns a stemroot-manifest-v1 document
/// (command "session") whose deterministic fields mirror what the batch
/// `stemroot run` of the same configuration would produce, so the
/// compare/regress gates apply to served sessions. The session-specific
/// service.* counters (service.sessions, service.feed_invocations,
/// service.early_stops) are environmental, like cache.*, and excluded
/// from the compare gate.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/plan.h"
#include "core/sampler.h"
#include "core/sampler_registry.h"
#include "core/streaming_root.h"
#include "eval/manifest.h"
#include "eval/metrics.h"
#include "service/metrics.h"
#include "trace/trace.h"

namespace stemroot::service {

/// Handle of one open session. Ids are process-unique and never reused.
using SessionId = uint64_t;

/// Service-wide knobs. The service owns the process-global machinery the
/// sessions share (thread pool, trace cache, telemetry switch); fields
/// left at their sentinel defaults leave the corresponding global
/// untouched so embedding front ends can configure them externally.
struct ServiceOptions {
  uint32_t max_sessions = 64;  ///< OpenSession beyond this throws
  int threads = -1;            ///< -1 = leave; else SetNumThreads(threads)
  std::string cache_dir;       ///< "" = leave; "none" = disable the cache
  bool enable_telemetry = false;  ///< true = telemetry::SetEnabled(true)
  /// Journal a warn-severity "request.slow" event for any verb slower
  /// than this (microseconds; 0 disables). Needs an open journal to have
  /// any effect.
  double slow_request_us = 0.0;

  void Validate() const;  ///< throws std::invalid_argument
};

/// Order in which FeedFromSource walks a generated source trace.
/// kShuffled feeds a seeded uniform permutation, which makes any prefix a
/// uniform random sample of the workload — the statistically sound mode
/// for early stopping on phased workloads. kTimeline preserves the
/// workload order, which is what the replay-equivalence contract pins.
enum class FeedOrder { kTimeline, kShuffled };

/// Everything a session needs, resolved up front. Typed counterpart of
/// the `stemroot run` flag set.
struct SessionConfig {
  std::string method = "stem";  ///< sampler registry key
  core::SamplerParams params;   ///< extra sampler parameters
  double epsilon = 0.05;        ///< STEM error bound (convergence target)
  double confidence = 0.95;     ///< STEM confidence level
  uint64_t seed = 42;           ///< master seed (Pipeline seed contract)
  double scale = 1.0;           ///< workload size scale
  uint32_t reps = 10;           ///< Evaluate repetitions
  /// Convergence floor: Query never reports converged before this many
  /// invocations were fed (guards against a lucky CoV estimate on a
  /// handful of points).
  uint64_t min_invocations = 256;
  /// The workload (both required): the service generates and profiles
  /// the source trace at OpenSession, and clients feed it with
  /// FeedFromSource.
  std::string suite;
  std::string workload;
  std::string gpu = "rtx2080";
  /// Out-of-core knobs forwarded to Pipeline::Options (RunBatch only;
  /// streaming sessions already hold just the fed chunks). 0/"" = the
  /// in-memory default; results are byte-identical either way.
  uint64_t trace_chunk_invocations = 0;
  std::string trace_spill_dir;
  FeedOrder order = FeedOrder::kTimeline;
  /// Incremental clusterer knobs; its root.stem epsilon/confidence are
  /// overwritten from the session's epsilon/confidence at OpenSession.
  core::StreamingRootConfig streaming;

  void Validate() const;  ///< throws std::invalid_argument
};

/// One streaming cluster, as Query reports it.
struct ClusterSummary {
  std::string kernel;       ///< kernel type name
  uint32_t kernel_id = 0;   ///< id in the session's accumulated trace
  uint64_t n = 0;           ///< invocations observed in this cluster
  double mean_us = 0.0;
  double stddev_us = 0.0;
  uint64_t stem_samples = 0;  ///< KKT allocation m_i over the seen data
};

/// Query response: the current sampling plan summary + convergence state.
struct SessionStatus {
  uint64_t invocations_seen = 0;
  uint64_t invocations_total = 0;  ///< size of the session's source trace
  double seen_total_us = 0.0;
  std::vector<ClusterSummary> clusters;  ///< kernel id, then mean order
  size_t num_kernels = 0;
  uint64_t splits = 0;   ///< streaming split events so far
  uint64_t merges = 0;   ///< streaming merge events so far
  /// Joint KKT allocation over the seen clusters (Sec. 3.3).
  uint64_t stem_samples_total = 0;
  double stem_cost_us = 0.0;        ///< predicted sampled-simulation cost
  double allocation_error = 0.0;    ///< Eq. 2 bound of that allocation
  /// CLT bound on extrapolating the full-workload total from the seen
  /// prefix treated as a uniform random sample: z * CoV(seen) / sqrt(n).
  /// This is the convergence criterion (it includes between-cluster
  /// variance, which the within-cluster allocation bound does not).
  double predicted_error = 0.0;
  /// predicted_error <= epsilon with at least min_invocations seen.
  bool converged = false;
  /// Converged while invocations remain unfed — the client may stop
  /// profiling now (counted once per session as service.early_stops).
  bool early_stop = false;
  double estimated_total_us = 0.0;  ///< mean(seen) * invocations_total
};

/// The resident facade. See the file comment for contracts.
class Service {
 public:
  explicit Service(const ServiceOptions& options = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Open a session. Validates the config, builds the sampler through the
  /// registry (epsilon/confidence are injected into the sampler params),
  /// and generates and profiles the source trace (served by the trace
  /// cache when warm). Throws std::runtime_error when max_sessions are
  /// already open.
  SessionId OpenSession(const SessionConfig& config);

  /// Feed the next `count` invocations of the session's generated source
  /// in the session's feed order; returns how many were actually fed
  /// (less than `count` at the end of the trace). With `progress`,
  /// also fills its seen counts, error bound, `converged` and `early_stop`
  /// as Query would (clusters and allocation stay empty), firing the same
  /// once-per-session convergence events, within this feed request.
  uint64_t FeedFromSource(SessionId id, uint64_t count,
                          SessionStatus* progress = nullptr);

  /// Recompute clusters, STEM allocation, and error bounds over the data
  /// seen so far. Cheap: no pipeline stages run.
  SessionStatus Query(SessionId id);

  /// Materialize a sampling plan by running the canonical batch sampler
  /// over the accumulated trace (the replay-equivalence path). Throws
  /// std::logic_error when nothing was fed yet.
  core::SamplingPlan BuildPlan(SessionId id);

  /// EvaluateRepeated over the accumulated trace with the session's reps
  /// and seed; the result feeds the session manifest's metrics.
  eval::EvalResult Evaluate(SessionId id);

  /// Close the session and return its manifest (command "session"). The
  /// id becomes invalid.
  eval::RunManifest CloseSession(SessionId id);

  size_t NumOpenSessions() const;

  uint32_t MaxSessions() const { return options_.max_sessions; }
  double UptimeSeconds() const;

  /// Assemble the full introspection view: uptime, session tallies,
  /// per-verb latency aggregates, journal counters. Lock-free except for
  /// the open-session count; safe to call concurrently with any verb.
  ServiceStats GetStats() const;

  /// The one-shot batch path (`stemroot run` is a thin client of this):
  /// generate + profile + evaluate with the session seed contract, no
  /// resident state, no service.* counters. Fills the manifest's config
  /// and metrics sections when `manifest` is non-null.
  static eval::EvalResult RunBatch(const SessionConfig& config,
                                   eval::RunManifest* manifest);

 private:
  struct Session;

  std::shared_ptr<Session> Find(SessionId id) const;
  static void FeedChunk(Session& session, const KernelTrace& source,
                        std::span<const KernelInvocation> invocations);
  /// The seen-prefix half of a status (counts, the CLT bound, converged,
  /// early_stop), journaling and tallying the first convergence and early
  /// stop. The caller holds session.mu.
  void FillProgress(Session& session, SessionId id, SessionStatus& status);

  ServiceOptions options_;
  ServiceMetrics metrics_;
  const std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();
  /// Service-wide lifetime tallies (session-local copies feed manifests;
  /// these feed GetStats and the `stats` verb).
  std::atomic<uint64_t> sessions_opened_{0};
  std::atomic<uint64_t> sessions_closed_{0};
  std::atomic<uint64_t> feed_invocations_{0};
  std::atomic<uint64_t> early_stops_{0};
  mutable std::mutex mu_;
  SessionId next_id_ = 1;
  std::map<SessionId, std::shared_ptr<Session>> sessions_;
};

}  // namespace stemroot::service
