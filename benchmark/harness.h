/// \file
/// Shared machinery of the benchmark binary: the run configuration, an
/// in-memory span recorder, the set-up and pass loops, correctness checks
/// against reference digests, and the metric table a run reports.
///
/// Every layer is measured from outside: spans wrap calls into the
/// library's public functions, never code inside it.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/sampler.h"
#include "eval/pipeline.h"
#include "workloads/suite.h"

namespace stemroot::bench {

/// The seed golden.json was recorded with.
inline constexpr uint64_t kDefaultSeed = 20251018;

/// STEM's error bound (5%): the within-epsilon threshold of the accuracy
/// metrics.
inline constexpr double kEpsilonPct = 5.0;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> values);

/// Linear-interpolation percentile, p in [0, 100] (0 for an empty sample).
double Pct(std::vector<double> values, double p);

/// Command line of one workload run.
struct Config {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 20.0;  ///< time budget of the timed phase
  bool trace = false;     ///< traced run: spans, decomposition, per-layer
  int threads = 4;        ///< engine pool size
  bool smoke = false;     ///< one set-up, no warm-up, one pass
  std::string work_dir;   ///< scratch directory, removed at exit
  std::string trace_file;   ///< Chrome trace output of a traced run
  std::string golden_file;  ///< digests of the default seed
  std::string record_file;  ///< JSON-lines file the full record joins
  bool update_golden = false;  ///< write this run's digests to golden_file
};

/// One finished span.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< pass or session the span belongs to
  uint32_t tid = 0;      ///< small per-thread index
  std::string name;
  double start_us = 0.0;  ///< since the recorder's origin
  double end_us = 0.0;
};

/// Process-wide span recorder. Spans are kept in memory while recording
/// is on and written out once, when the run ends.
class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool Enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Add(SpanRecord record);
  uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  double NowUs() const;

  /// Durations in seconds of every span with this name, in end order.
  std::vector<double> Durations(std::string_view name) const;
  /// Sum of Durations(name).
  double Total(std::string_view name) const;

  /// Chrome trace-event JSON ("X" events; args carry id/parent/request).
  void WriteChrome(const std::string& path) const;

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< guarded by mu_
};

/// RAII span around one call into a layer. Records nothing while tracing
/// is off. The parent is the innermost open span of the same thread;
/// `request` 0 inherits the parent's request id.
class Span {
 public:
  explicit Span(std::string_view name, uint64_t request = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::optional<SpanRecord> record_;
};

/// Runs `fn` inside a span and returns its result by value.
template <typename F>
auto Traced(std::string_view name, F&& fn) {
  Span span(name);
  return fn();
}

/// Digest of a canonical rendering of a result: numbers print in their
/// shortest round-trip form, so two digests match only for bit-identical
/// values.
class Digest {
 public:
  Digest& Add(double v);
  Digest& Add(std::string_view s);
  std::string Hex() const;

 private:
  std::string text_;
};

/// Generate and profile one workload with the pipeline's seed contract,
/// timing the two stages as "workloads.generate" and "hw.profile".
eval::Pipeline GenerateProfiled(workloads::SuiteId suite,
                                const std::string& workload, uint64_t seed,
                                double scale);

/// A registry sampler with default parameters ("stem", "random", ...).
std::unique_ptr<core::Sampler> MakeSampler(const std::string& method);

/// One workload run: collects timings, correctness outcomes and metrics,
/// then reports them.
class Run {
 public:
  explicit Run(Config config);

  const Config& Cfg() const { return config_; }

  /// Times `make` at least kMinSetups times and until kSetupSeconds are
  /// spent (once in smoke mode), and returns the last result; each
  /// repetition is one setup_s sample, so a millisecond set-up still
  /// reports a steady median. The previous result is destroyed before the
  /// next is built, so memory holds one copy. A traced run adds one
  /// untimed repetition with spans on.
  template <typename F>
  std::invoke_result_t<F&> Setup(F&& make) {
    std::optional<std::invoke_result_t<F&>> state;
    double spent = 0.0;
    const auto more = [&] {
      const size_t n = setup_s_.size();
      if (config_.smoke) return n == 0;
      return n < kMinSetups || (n < kMaxSetups && spent < kSetupSeconds);
    };
    while (more()) {
      state.reset();
      const Clock::time_point start = Clock::now();
      state.emplace(make());
      setup_s_.push_back(SecondsSince(start));
      spent += setup_s_.back();
    }
    if (config_.trace) {
      state.reset();
      Tracer::Get().SetEnabled(true);
      state.emplace(make());
      Tracer::Get().SetEnabled(false);
    }
    return std::move(*state);
  }

  /// One untimed warm-up pass (none in smoke mode), then timed passes
  /// while the budget lasts; a pass starts only if the previous pass's
  /// duration still fits. A traced run spends the first half of the budget
  /// untraced and the second half traced.
  void Passes(const std::function<void(uint64_t pass)>& pass);

  /// Runs `phase(budget_seconds, samples)` once untraced (full budget) or,
  /// in a traced run, twice: half untraced, half traced. `samples` receives
  /// the timed unit's durations; the untraced ones are the pass samples.
  void Phases(const std::function<void(double, std::vector<double>&)>& phase);

  /// Traced runs only: the decomposition pass, run with spans on. It
  /// replaces the workload's opaque call by the public lower-layer calls
  /// it is made of, run serially, and must reproduce its outputs exactly.
  void Decompose(const std::function<void()>& fn);

  /// Untraced pass (or session) durations, seconds.
  const std::vector<double>& PassSamples() const { return pass_s_; }

  /// Compare an output digest with this run's reference for `key` (the
  /// first digest reported under it); a mismatch is a failure. At the
  /// default seed the references are also checked against golden.json.
  void Check(const std::string& key, const std::string& digest);

  /// Count one operation; `ok == false` records a failure.
  void Attempt(bool ok, const std::string& what);
  void Fail(const std::string& what);

  /// Set a metric declared in the metric table (throws on unknown names).
  void Set(const std::string& name, double value);

  /// Sizes of the workload, part of the config fingerprint.
  void SetSizes(std::string sizes) { sizes_ = std::move(sizes); }

  /// Print every metric, write the trace and the record, print the result
  /// line. Returns the process exit code.
  int Finish();

 private:
  static constexpr size_t kMinSetups = 5;
  static constexpr size_t kMaxSetups = 1000;
  static constexpr double kSetupSeconds = 0.5;

  /// At the default seed: compare the references with golden.json, or
  /// write them there with --update-golden.
  void CheckGolden();
  /// The full record: fingerprint, outcome, samples, digests, metrics.
  std::string RecordJson() const;

  Config config_;
  std::string sizes_;
  std::vector<double> setup_s_;
  std::vector<double> pass_s_;
  std::vector<double> traced_pass_s_;
  std::mutex mu_;  ///< guards the fields below (clients report concurrently)
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::string> references_;
  std::map<std::string, double> values_;
};

// The four workloads (one source file each).
void RunBatchHf(Run& run);
void RunDseSweep(Run& run);
void RunStreamOoc(Run& run);
void RunServeSessions(Run& run);

}  // namespace stemroot::bench
