#include "service/service.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif
// AddressSanitizer builds: GCC defines __SANITIZE_ADDRESS__, clang
// answers __has_feature(address_sanitizer).
#if defined(__SANITIZE_ADDRESS__)
#define SR_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SR_ASAN 1
#endif
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <numeric>
#include <stdexcept>

#include "baselines/registry.h"
#include "common/journal.h"
#include "common/parallel.h"
#include "common/resource.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/kkt.h"
#include "eval/options.h"
#include "eval/pipeline.h"
#include "eval/trace_cache.h"

namespace stemroot::service {

namespace {

/// Seed streams: the per-kernel streaming clusterers and the shuffled
/// feed order each get their own derivation from the session seed, so
/// neither can collide with the pipeline's generation/profiling/sampling
/// streams.
constexpr uint64_t kStreamingStream = 0x53455256ULL;  // "SERV"
constexpr uint64_t kShuffleStream = 0x53485546ULL;    // "SHUF"

eval::Pipeline::Options PipelineOpts(const SessionConfig& config) {
  eval::Pipeline::Options options;
  options.seed = config.seed;
  options.size_scale = config.scale;
  options.trace_chunk_invocations = config.trace_chunk_invocations;
  options.trace_spill_dir = config.trace_spill_dir;
  return options;
}

/// Build the session's sampler through the registry, injecting the typed
/// epsilon/confidence into the parameter bag (factories that have no
/// error contract ignore them).
std::unique_ptr<core::Sampler> MakeSessionSampler(const SessionConfig& config) {
  baselines::EnsureBuiltinSamplers();
  core::SamplerParams params = config.params;
  if (config.epsilon > 0.0) params.Set("epsilon", config.epsilon);
  if (config.confidence > 0.0) params.Set("confidence", config.confidence);
  return core::SamplerRegistry::Global().Create(config.method, params);
}

/// RAII request instrumentation: stamps the verb's latency histogram and
/// request/error counters on scope exit (success vs. in-flight exception
/// told apart by the uncaught-exception count), and journals a
/// warn-severity "request.slow" event past the configured threshold.
class RequestTimer {
 public:
  RequestTimer(ServiceMetrics& metrics, Verb verb, double slow_us,
               SessionId id = 0)
      : metrics_(metrics), verb_(verb), slow_us_(slow_us), id_(id),
        uncaught_(std::uncaught_exceptions()) {}

  RequestTimer(const RequestTimer&) = delete;
  RequestTimer& operator=(const RequestTimer&) = delete;

  ~RequestTimer() {
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    const bool ok = std::uncaught_exceptions() == uncaught_;
    metrics_.RecordRequest(verb_, us, ok);
    if (slow_us_ > 0.0 && us >= slow_us_ && journal::Enabled())
      journal::Emit(journal::Severity::kWarn, "request.slow",
                    {{"verb", VerbName(verb_)},
                     {"session", id_},
                     {"latency_us", us}});
  }

 private:
  ServiceMetrics& metrics_;
  Verb verb_;
  double slow_us_;
  SessionId id_;
  int uncaught_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Hand the pages freed so far back to the OS. glibc keeps freed memory
/// in the arena of the thread that allocated it, and concurrent sessions
/// spread their traces over the connection threads' arenas. Without this,
/// every arena keeps the high-water mark of the sessions it ever held, and
/// peak RSS grows with the number of connection threads instead of with
/// the open sessions. Under AddressSanitizer the heap is ASan's, not
/// glibc's: malloc_trim would walk arenas ASan never set up and crash.
void ReturnFreedPages() {
#if defined(__GLIBC__) && !defined(SR_ASAN)
  malloc_trim(0);
#endif
}

}  // namespace

void ServiceOptions::Validate() const {
  if (max_sessions == 0)
    throw std::invalid_argument("service: max_sessions must be >= 1");
  if (threads < -1)
    throw std::invalid_argument("service: threads must be >= -1");
}

void SessionConfig::Validate() const {
  if (method.empty())
    throw std::invalid_argument("session: method must be non-empty");
  if (epsilon < 0.0 || epsilon >= 1.0)
    throw std::invalid_argument("session: epsilon must be in [0, 1)");
  if (confidence < 0.0 || confidence >= 1.0)
    throw std::invalid_argument("session: confidence must be in [0, 1)");
  if (!(scale > 0.0))
    throw std::invalid_argument("session: scale must be > 0");
  if (reps == 0)
    throw std::invalid_argument("session: reps must be >= 1");
  if (min_invocations == 0)
    throw std::invalid_argument("session: min_invocations must be >= 1");
  if (suite.empty() || workload.empty())
    throw std::invalid_argument("session: needs both a suite and a workload");
}

struct Service::Session {
  /// Generates and profiles the workload `resolved` names, recording
  /// into this session's sink.
  Session(SessionConfig resolved, std::unique_ptr<core::Sampler> built)
      : config(std::move(resolved)), sampler(std::move(built)),
        source([this] {
          const telemetry::Scope scope(&telemetry);
          return eval::Pipeline::GenerateProfiled(
              {.suite = eval::ResolveSuite(config.suite),
               .workload = config.workload,
               .options = PipelineOpts(config)},
              eval::ResolveGpu(config.gpu));
        }()) {}

  std::mutex mu;
  SessionConfig config;              ///< resolved (streaming stem injected)
  std::unique_ptr<core::Sampler> sampler;
  /// What OpenSession, BuildPlan and Evaluate recorded, on every thread
  /// that worked for them.
  telemetry::Sink telemetry;
  std::chrono::steady_clock::time_point opened_at =
      std::chrono::steady_clock::now();
  eval::Pipeline source;             ///< the generated, profiled workload
  uint64_t streaming_seed = 0;
  KernelTrace accumulated;           ///< everything fed, in feed order
  std::map<uint32_t, core::StreamingRoot> roots;  ///< by accumulated id
  StreamingStats seen;               ///< all fed durations
  std::vector<uint32_t> feed_order;  ///< source permutation
  size_t cursor = 0;                 ///< next feed_order position
  uint64_t feed_invocations = 0;
  bool early_stopped = false;
  bool converged_reported = false;  ///< journaled session.converged once
  std::optional<eval::EvalResult> last_eval;
};

Service::Service(const ServiceOptions& options) : options_(options) {
  options_.Validate();
  if (options_.threads >= 0) SetNumThreads(options_.threads);
  if (!options_.cache_dir.empty()) eval::SetTraceCacheDir(options_.cache_dir);
  if (options_.enable_telemetry) telemetry::SetEnabled(true);
}

Service::~Service() = default;

std::shared_ptr<Service::Session> Service::Find(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end())
    throw std::out_of_range("service: unknown session id " +
                            std::to_string(id));
  return it->second;
}

size_t Service::NumOpenSessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

SessionId Service::OpenSession(const SessionConfig& config) {
  RequestTimer timer(metrics_, Verb::kOpen, options_.slow_request_us);
  config.Validate();
  if (config.epsilon <= 0.0 || config.confidence <= 0.0)
    throw std::invalid_argument(
        "session: streaming sessions need an error contract (epsilon and "
        "confidence > 0)");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.size() >= options_.max_sessions)
      throw std::runtime_error("service: session limit reached (" +
                               std::to_string(options_.max_sessions) + ")");
  }

  SessionConfig resolved = config;
  resolved.streaming.root.stem.epsilon = config.epsilon;
  resolved.streaming.root.stem.confidence = config.confidence;
  resolved.streaming.Validate();
  std::unique_ptr<core::Sampler> sampler = MakeSessionSampler(resolved);
  auto session =
      std::make_shared<Session>(std::move(resolved), std::move(sampler));
  session->streaming_seed = DeriveSeed(config.seed, kStreamingStream);
  const size_t n = session->source.Trace().NumInvocations();
  session->feed_order.resize(n);
  std::iota(session->feed_order.begin(), session->feed_order.end(), 0u);
  if (config.order == FeedOrder::kShuffled && n > 1) {
    Rng rng(DeriveSeed(config.seed, kShuffleStream));
    for (size_t i = n - 1; i > 0; --i) {
      const uint64_t j = rng.NextBounded(i + 1);
      std::swap(session->feed_order[i],
                session->feed_order[static_cast<size_t>(j)]);
    }
  }

  telemetry::Count("service.sessions");
  SessionId id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.size() >= options_.max_sessions)
      throw std::runtime_error("service: session limit reached (" +
                               std::to_string(options_.max_sessions) + ")");
    id = next_id_++;
    sessions_.emplace(id, std::move(session));
  }
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  if (journal::Enabled())
    journal::Emit(journal::Severity::kInfo, "session.open",
                  {{"session", id},
                   {"method", config.method},
                   {"suite", config.suite},
                   {"workload", config.workload},
                   {"seed", config.seed}});
  return id;
}

uint64_t Service::FeedFromSource(SessionId id, uint64_t count,
                                  SessionStatus* progress) {
  RequestTimer timer(metrics_, Verb::kFeed, options_.slow_request_us, id);
  const std::shared_ptr<Session> session = Find(id);
  uint64_t n = 0;
  uint64_t seen = 0;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    const KernelTrace& trace = session->source.Trace();
    const uint64_t available = session->feed_order.size() - session->cursor;
    n = std::min<uint64_t>(count, available);
    std::vector<KernelInvocation> chunk;
    chunk.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i)
      chunk.push_back(trace.At(session->feed_order[session->cursor++]));
    if (!chunk.empty()) FeedChunk(*session, trace, chunk);
    seen = session->accumulated.NumInvocations();
  }
  feed_invocations_.fetch_add(n, std::memory_order_relaxed);
  if (journal::Enabled())
    journal::Emit(journal::Severity::kDebug, "session.feed",
                  {{"session", id}, {"count", n}, {"seen", seen}});
  if (progress != nullptr) {
    std::lock_guard<std::mutex> lock(session->mu);
    FillProgress(*session, id, *progress);
  }
  return n;
}

/// Append one chunk to the session under its lock. Validates the whole
/// chunk before mutating anything, so a bad invocation leaves the session
/// untouched.
void Service::FeedChunk(Session& session, const KernelTrace& source,
                        std::span<const KernelInvocation> invocations) {
  for (const KernelInvocation& inv : invocations) {
    if (!(inv.duration_us > 0.0))
      throw std::invalid_argument(
          "service: Feed requires profiled invocations (duration_us > 0)");
    if (inv.kernel_id >= source.NumKernelTypes())
      throw std::out_of_range(
          "service: invocation kernel_id outside the source type table");
  }
  // Intern the source's full type table in id order. Feeding one source
  // trace therefore reproduces its kernel ids exactly (the identity
  // remap), which is what keeps the accumulated trace byte-equivalent to
  // the source under a full timeline-order feed (replay equivalence).
  std::vector<uint32_t> remap(source.NumKernelTypes());
  for (uint32_t t = 0; t < source.NumKernelTypes(); ++t)
    remap[t] = session.accumulated.AddKernelType(source.Type(t));
  if (session.accumulated.WorkloadName().empty())
    session.accumulated.SetWorkloadName(source.WorkloadName());
  session.feed_invocations += invocations.size();
  telemetry::Count("service.feed_invocations", invocations.size());
  // Streaming ROOT's k-means/KKT counters belong to no session: muted,
  // they reach neither a sink nor the process capture.
  const telemetry::Scope mute(nullptr);
  for (const KernelInvocation& inv : invocations) {
    KernelInvocation copy = inv;
    copy.kernel_id = remap[inv.kernel_id];
    session.accumulated.Add(copy);  // seq reassigned to the feed order
    auto it = session.roots.find(copy.kernel_id);
    if (it == session.roots.end())
      it = session.roots
               .try_emplace(copy.kernel_id, session.config.streaming,
                            DeriveSeed(session.streaming_seed,
                                       copy.kernel_id))
               .first;
    it->second.Observe(copy.duration_us);
    session.seen.Add(copy.duration_us);
  }
  // Per-session streaming state. "service."-prefixed categories are
  // environmental (the peak depends on which sessions are live), so this
  // is excluded from compare/regress gating like service.* counters.
  resource::AccountPeak(
      "service.session",
      session.accumulated.ApproxBytes() +
          session.roots.size() *
              (sizeof(core::StreamingRoot) + 4 * sizeof(void*)));
}

SessionStatus Service::Query(SessionId id) {
  RequestTimer timer(metrics_, Verb::kQuery, options_.slow_request_us, id);
  const std::shared_ptr<Session> session = Find(id);
  std::lock_guard<std::mutex> lock(session->mu);
  SessionStatus status;
  status.num_kernels = session->roots.size();

  std::vector<core::ClusterStats> stats;
  for (const auto& [kernel_id, root] : session->roots) {
    status.splits += root.NumSplits();
    status.merges += root.NumMerges();
    for (const core::ClusterStats& c : root.Stats()) {
      ClusterSummary summary;
      summary.kernel = session->accumulated.Type(kernel_id).name;
      summary.kernel_id = kernel_id;
      summary.n = c.n;
      summary.mean_us = c.mean;
      summary.stddev_us = c.stddev;
      status.clusters.push_back(std::move(summary));
      stats.push_back(c);
    }
  }
  if (!stats.empty()) {
    // Muted for the same reason as the feed's streaming ROOT.
    const core::KktSolution solution = [&] {
      const telemetry::Scope mute(nullptr);
      return core::SolveKkt(stats, session->config.streaming.root.stem);
    }();
    for (size_t i = 0; i < stats.size(); ++i) {
      status.clusters[i].stem_samples = solution.sample_sizes[i];
      status.stem_samples_total += solution.sample_sizes[i];
    }
    status.stem_cost_us = solution.cost_us;
    status.allocation_error = solution.theoretical_error;
  }
  FillProgress(*session, id, status);
  return status;
}

void Service::FillProgress(Session& session, SessionId id,
                           SessionStatus& status) {
  status.invocations_seen = session.accumulated.NumInvocations();
  status.invocations_total = session.source.Trace().NumInvocations();
  status.seen_total_us = session.seen.Sum();
  const uint64_t n = session.seen.Count();
  if (n > 0 && session.seen.Mean() > 0.0) {
    status.predicted_error = session.config.streaming.root.stem.Z() *
                             session.seen.Cov() /
                             std::sqrt(static_cast<double>(n));
    status.converged = n >= session.config.min_invocations &&
                       status.predicted_error <= session.config.epsilon;
  }
  status.estimated_total_us =
      session.seen.Mean() * static_cast<double>(status.invocations_total);
  status.early_stop = status.converged &&
                      status.invocations_seen < status.invocations_total;
  if (status.converged && !session.converged_reported) {
    session.converged_reported = true;
    if (journal::Enabled())
      journal::Emit(journal::Severity::kInfo, "session.converged",
                    {{"session", id},
                     {"seen", status.invocations_seen},
                     {"predicted_error", status.predicted_error},
                     {"epsilon", session.config.epsilon}});
  }
  if (status.early_stop && !session.early_stopped) {
    session.early_stopped = true;
    telemetry::Count("service.early_stops");
    early_stops_.fetch_add(1, std::memory_order_relaxed);
    if (journal::Enabled())
      journal::Emit(journal::Severity::kInfo, "session.early_stop",
                    {{"session", id},
                     {"seen", status.invocations_seen},
                     {"total", status.invocations_total},
                     {"predicted_error", status.predicted_error}});
  }
}

core::SamplingPlan Service::BuildPlan(SessionId id) {
  RequestTimer timer(metrics_, Verb::kPlan, options_.slow_request_us, id);
  const std::shared_ptr<Session> session = Find(id);
  std::lock_guard<std::mutex> lock(session->mu);
  if (session->accumulated.Empty())
    throw std::logic_error("service: BuildPlan before any Feed");
  const telemetry::Scope scope(&session->telemetry);
  return eval::Pipeline::FromTrace(session->accumulated,
                                   PipelineOpts(session->config))
      .Sample(*session->sampler);
}

eval::EvalResult Service::Evaluate(SessionId id) {
  RequestTimer timer(metrics_, Verb::kEval, options_.slow_request_us, id);
  const std::shared_ptr<Session> session = Find(id);
  std::lock_guard<std::mutex> lock(session->mu);
  if (session->accumulated.Empty())
    throw std::logic_error("service: Evaluate before any Feed");
  const telemetry::Scope scope(&session->telemetry);
  eval::EvalResult result =
      eval::Pipeline::FromTrace(session->accumulated,
                                PipelineOpts(session->config))
          .Evaluate(*session->sampler, session->config.reps);
  session->last_eval = result;
  return result;
}

eval::RunManifest Service::CloseSession(SessionId id) {
  RequestTimer timer(metrics_, Verb::kClose, options_.slow_request_us, id);
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end())
      throw std::out_of_range("service: unknown session id " +
                              std::to_string(id));
    session = std::move(it->second);
    sessions_.erase(it);
  }
  std::unique_lock<std::mutex> lock(session->mu);

  eval::RunManifest manifest;
  manifest.tool = "stemroot";
  manifest.command = "session";
  manifest.completed = true;
  manifest.StampBuild();
  manifest.config.suite = session->source.SuiteName();
  manifest.config.workload = session->accumulated.WorkloadName().empty()
                                 ? session->config.workload
                                 : session->accumulated.WorkloadName();
  manifest.config.gpu = session->source.GpuName();
  manifest.config.method = session->config.method;
  manifest.config.epsilon = session->config.epsilon;
  manifest.config.confidence = session->config.confidence;
  manifest.config.scale = session->config.scale;
  manifest.config.seed = session->config.seed;
  manifest.config.reps = session->config.reps;
  manifest.config.threads = NumThreads();
  if (session->last_eval) manifest.FillMetrics(*session->last_eval);
  // Counters that never grew stay out. The service.* ones come from
  // session-local tallies: the sink saw only the verbs under its scope.
  manifest.FillFromSnapshot(session->telemetry.Capture());
  std::erase_if(manifest.counters, [](const auto& counter) {
    return counter.second == 0 || counter.first.starts_with("service.");
  });
  manifest.counters["service.sessions"] = 1;
  manifest.counters["service.feed_invocations"] = session->feed_invocations;
  manifest.counters["service.early_stops"] = session->early_stopped ? 1 : 0;
  manifest.wall_time_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    session->opened_at)
          .count();
  sessions_closed_.fetch_add(1, std::memory_order_relaxed);
  if (journal::Enabled()) {
    journal::Emit(journal::Severity::kInfo, "session.close",
                  {{"session", id},
                   {"invocations", session->feed_invocations},
                   {"wall_seconds", manifest.wall_time_seconds}});
    // Stamp the process journal health into the manifest so the regress
    // gate can flag a run whose journal lost or errored events.
    const journal::Stats js = journal::GetStats();
    manifest.journal.present = true;
    manifest.journal.emitted = js.emitted;
    manifest.journal.dropped = js.dropped;
    manifest.journal.errors = js.errors;
  }
  // The session is at its largest here: one physical sample lets a new
  // high water reach the journal as "mem_highwater" even when no client
  // asks for `stats`.
  resource::SamplePhysical();
  lock.unlock();
  session.reset();
  ReturnFreedPages();
  return manifest;
}

double Service::UptimeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started_at_)
      .count();
}

ServiceStats Service::GetStats() const {
  ServiceStats stats;
  stats.uptime_seconds = UptimeSeconds();
  stats.open_sessions = NumOpenSessions();
  stats.max_sessions = options_.max_sessions;
  stats.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  stats.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  stats.feed_invocations =
      feed_invocations_.load(std::memory_order_relaxed);
  stats.early_stops = early_stops_.load(std::memory_order_relaxed);
  stats.verbs = metrics_.AllVerbs();
  for (const VerbStats& v : stats.verbs) {
    stats.requests_total += v.requests;
    stats.errors_total += v.errors;
  }
  const journal::Stats js = journal::GetStats();
  stats.journal_emitted = js.emitted;
  stats.journal_dropped = js.dropped;
  stats.journal_errors = js.errors;
  // One fresh physical observation per stats assembly keeps the `mem`
  // object live.
  resource::SamplePhysical();
  const resource::Stats rs = resource::GetStats();
  stats.process_rss_bytes = rs.current_rss_bytes;
  stats.process_hwm_bytes = rs.peak_rss_bytes;
  stats.resource_samples = rs.samples;
  stats.process_cpu_user_seconds = rs.user_cpu_seconds;
  stats.process_cpu_system_seconds = rs.system_cpu_seconds;
  stats.mem_logical = resource::LogicalPeaks();
  return stats;
}

eval::EvalResult Service::RunBatch(const SessionConfig& config,
                                   eval::RunManifest* manifest) {
  config.Validate();
  const workloads::SuiteId suite = eval::ResolveSuite(config.suite);
  const hw::GpuSpec spec = eval::ResolveGpu(config.gpu);
  const std::unique_ptr<core::Sampler> sampler = MakeSessionSampler(config);
  eval::Pipeline pipeline = eval::Pipeline::GenerateProfiled(
      {.suite = suite,
       .workload = config.workload,
       .options = PipelineOpts(config)},
      spec);
  if (manifest != nullptr) {
    pipeline.FillManifest(*manifest);
    manifest->config.method = config.method;
    manifest->config.epsilon = config.epsilon;
    manifest->config.confidence = config.confidence;
    manifest->config.reps = config.reps;
    if (pipeline.Spill().enabled) {
      manifest->trace_spill.present = true;
      manifest->trace_spill.chunk_invocations =
          pipeline.Spill().chunk_invocations;
      manifest->trace_spill.chunks = pipeline.Spill().chunks;
      manifest->trace_spill.bytes = pipeline.Spill().bytes;
    }
  }
  const eval::EvalResult result = pipeline.Evaluate(*sampler, config.reps);
  if (manifest != nullptr) manifest->FillMetrics(result);
  return result;
}

}  // namespace stemroot::service
