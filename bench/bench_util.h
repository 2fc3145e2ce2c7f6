/// \file
/// Shared plumbing for the bench binaries: the standard sampler roster
/// (Table 1's four methods + uniform random, built via the sampler
/// registry), result directories, the experiment-wide default seed, and the
/// Session helper every bench main opens first (threads + telemetry).
///
/// Every bench prints the paper-table layout to stdout and mirrors the raw
/// series into bench_results/*.csv (like the paper artifact's per-figure
/// CSVs).

#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/sampler.h"
#include "core/sampler_registry.h"

namespace stemroot::bench {

/// Master seed shared by all benches (reproducible end to end).
inline constexpr uint64_t kSeed = 20251018;  // MICRO '25 week

/// Where benches drop their CSVs.
inline std::string ResultsDir() {
  const std::string dir = "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Owning container for a sampler roster.
struct SamplerSet {
  std::vector<std::unique_ptr<core::Sampler>> owned;
  std::vector<const core::Sampler*> pointers;

  void Add(std::unique_ptr<core::Sampler> sampler) {
    pointers.push_back(sampler.get());
    owned.push_back(std::move(sampler));
  }
};

/// Per-bench run scope, opened first thing in every bench main:
///
///   int main(int argc, char** argv) {
///     bench::Session session(argc, argv);
///     ...
///   }
///
/// Parses `--threads N` (0 = auto; STEMROOT_THREADS works too -- results
/// are bit-identical at any thread count), `--telemetry FILE` (enables
/// the telemetry subsystem; the destructor captures and writes the export,
/// .csv extension selecting CSV over JSON), `--trace FILE` (records Chrome
/// trace events, written by the destructor), `--log-level L`
/// (silent|warn|inform|debug), `--ledger FILE` (override the run
/// ledger path; `--ledger none` disables the append), and
/// `--cache DIR|none` (relocate or disable the content-addressed
/// profiled-trace cache, default bench_results/cache -- a warm cache
/// skips the generate+profile stages with byte-identical results).
/// google-benchmark's `--benchmark_filter=` and `--benchmark_repetitions=`
/// are left in argv for that parser but recorded as the manifest's
/// `workload` and `reps`, so a filtered run never shares a ledger
/// fingerprint with a full one.
///
/// Every bench run leaves a machine-readable stemroot-manifest-v1 run
/// manifest at bench_results/BENCH_<name>.json (the bench name is
/// argv[0]'s basename): the constructor flushes it immediately with
/// `"completed": false`, and the destructor rewrites it with the final
/// wall time, build stamp, telemetry stage/counter data (when enabled),
/// and `"completed": true` -- so a crashed, OOM-killed, or timed-out
/// bench still leaves evidence of what started and never finished. On
/// clean completion the manifest is also appended to the perf ledger
/// (bench_results/ledger.jsonl by default; see src/eval/ledger.h), which
/// `stemroot regress` gates on.
class Session {
 public:
  Session(int argc, const char* const* argv);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Resolved parallelism after --threads / STEMROOT_THREADS.
  int threads() const { return threads_; }

  /// Bench name derived from argv[0] (basename, no directories).
  const std::string& name() const { return name_; }

  /// Remove the Session-consumed flag pairs (--threads, --telemetry,
  /// --trace, --log-level, --ledger, --cache) from argv in place,
  /// updating *argc:
  /// benches
  /// that forward argv to another parser (google-benchmark) call this
  /// after constructing the Session so the foreign parser never sees our
  /// flags.
  static void StripFlags(int* argc, char** argv);

 private:
  /// Manifest skeleton for this run; completed=false until the destructor.
  void WriteManifest(bool completed) const;

  int threads_ = 0;
  /// --benchmark_filter= and --benchmark_repetitions= values ("" and 0
  /// when absent), recorded as the manifest's workload and reps.
  std::string benchmark_filter_;
  uint32_t benchmark_repetitions_ = 0;
  std::string name_;
  std::string telemetry_path_;
  std::string trace_path_;
  std::string ledger_path_;  ///< empty = append disabled
  std::chrono::steady_clock::time_point start_;
};

/// The paper's comparison roster for a suite (Sec. 5):
/// Random(p), PKA, Sieve, Photon, STEM -- built through the global
/// SamplerRegistry (the same path the CLI uses). Per Sec. 5.1 the
/// evaluation uses the hand-tuned random-representative variants of
/// PKA/Sieve on Rodinia (first-chronological fails catastrophically there)
/// and disables Sieve's KDE on CASIO (it oversamples); `rodinia_tuning`
/// selects that.
SamplerSet MakeStandardSamplers(double random_probability,
                                bool rodinia_tuning);

/// Build one sampler through the global SamplerRegistry (ensuring the
/// builtin samplers are registered first). Shorthand for benches that need
/// a single method or a parameter sweep.
std::unique_ptr<core::Sampler> MakeSampler(
    const std::string& name, const core::SamplerParams& params);
std::unique_ptr<core::Sampler> MakeSampler(const std::string& name);

}  // namespace stemroot::bench
