#include "bench_util.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>

#include "baselines/registry.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/trace_events.h"
#include "core/sampler_registry.h"
#include "eval/ledger.h"
#include "eval/manifest.h"
#include "eval/stage_report.h"
#include "eval/trace_cache.h"

namespace stemroot::bench {

namespace {

/// The flag pairs Session consumes; shared with StripFlags.
constexpr const char* kSessionFlags[] = {"--threads", "--telemetry",
                                         "--trace", "--log-level",
                                         "--ledger", "--cache"};

bool IsSessionFlag(const char* arg) {
  for (const char* flag : kSessionFlags)
    if (std::strcmp(arg, flag) == 0) return true;
  return false;
}

}  // namespace

Session::Session(int argc, const char* const* argv) {
  if (argc > 0) {
    const std::string argv0 = argv[0];
    const size_t slash = argv0.find_last_of('/');
    name_ = slash == std::string::npos ? argv0 : argv0.substr(slash + 1);
  }
  if (name_.empty()) name_ = "bench";
  ledger_path_ = eval::Ledger::DefaultPath();
  std::string cache_dir = eval::DefaultTraceCacheDir();

  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--ledger") == 0) {
      const std::string value = argv[i + 1];
      ledger_path_ = value == "none" ? "" : value;
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      cache_dir = argv[i + 1];
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      const int n = std::atoi(argv[i + 1]);
      if (n < 0) {
        std::fprintf(stderr, "bad --threads value '%s'\n", argv[i + 1]);
        std::exit(2);
      }
      SetNumThreads(n);
    } else if (std::strcmp(argv[i], "--telemetry") == 0) {
      telemetry_path_ = argv[i + 1];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path_ = argv[i + 1];
    } else if (std::strcmp(argv[i], "--log-level") == 0) {
      const std::optional<LogLevel> level = LogLevelFromName(argv[i + 1]);
      if (!level) {
        std::fprintf(stderr,
                     "bad --log-level '%s' (silent, warn, inform, debug)\n",
                     argv[i + 1]);
        std::exit(2);
      }
      SetLogLevel(*level);
    }
  }
  // google-benchmark's selection flags: a filtered or repeated run
  // measures something else than a full one, so they join the manifest
  // fingerprint through the config's workload and reps fields.
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kFilter = "--benchmark_filter=";
    constexpr std::string_view kRepetitions = "--benchmark_repetitions=";
    if (arg.substr(0, kFilter.size()) == kFilter) {
      benchmark_filter_ = arg.substr(kFilter.size());
    } else if (arg.substr(0, kRepetitions.size()) == kRepetitions) {
      const std::string_view value = arg.substr(kRepetitions.size());
      // An unparsable count stays 0; google-benchmark refuses it anyway.
      (void)std::from_chars(value.data(), value.data() + value.size(),
                            benchmark_repetitions_);
    }
  }
  threads_ = NumThreads();
  // Same default the CLI uses: benches hit the profiled-trace cache
  // transparently; results are cached-vs-uncached invariant by contract.
  eval::SetTraceCacheDir(cache_dir);
  std::printf("[threads: %d -- results are thread-count invariant]\n",
              threads_);
  if (!telemetry_path_.empty()) telemetry::SetEnabled(true);
  if (!trace_path_.empty()) trace_events::SetEnabled(true);
  start_ = std::chrono::steady_clock::now();
  // Flush the manifest up front with completed=false: a bench that
  // crashes, OOMs, or is killed by a CI timeout still leaves evidence.
  WriteManifest(/*completed=*/false);
}

void Session::WriteManifest(bool completed) const {
  eval::RunManifest manifest;
  manifest.tool = name_;
  manifest.command = "bench";
  manifest.completed = completed;
  manifest.StampBuild();
  manifest.config.seed = kSeed;
  manifest.config.threads = threads_;
  manifest.config.workload = benchmark_filter_;
  manifest.config.reps = benchmark_repetitions_;
  manifest.wall_time_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_)
          .count();
  if (telemetry::Enabled())
    manifest.FillFromSnapshot(telemetry::Capture());

  const std::string path = ResultsDir() + "/BENCH_" + name_ + ".json";
  try {
    manifest.Save(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench manifest export failed: %s\n", e.what());
    return;
  }
  if (completed && !ledger_path_.empty()) {
    try {
      eval::Ledger::Append(manifest, ledger_path_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench ledger append failed: %s\n", e.what());
    }
  }
}

Session::~Session() {
  if (!telemetry_path_.empty()) {
    try {
      eval::WriteTelemetry(telemetry::Capture(), telemetry_path_);
      std::printf("telemetry: %s\n", telemetry_path_.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "telemetry export failed: %s\n", e.what());
    }
  }
  if (!trace_path_.empty()) {
    try {
      trace_events::WriteTrace(trace_path_);
      std::printf("trace: %s\n", trace_path_.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace export failed: %s\n", e.what());
    }
  }

  // Finalize the run manifest (wall time, stages, counters) and append it
  // to the perf ledger -- the always-on machine-readable summary sweep
  // scripts and `stemroot regress` consume.
  WriteManifest(/*completed=*/true);
}

void Session::StripFlags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (i + 1 < *argc && IsSessionFlag(argv[i])) {
      ++i;  // skip the value too
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  argv[out] = nullptr;
}

SamplerSet MakeStandardSamplers(double random_probability,
                                bool rodinia_tuning) {
  baselines::EnsureBuiltinSamplers();
  core::SamplerRegistry& registry = core::SamplerRegistry::Global();

  SamplerSet set;
  set.Add(registry.Create("random", core::SamplerParams().Set(
                                        "probability", random_probability)));
  set.Add(registry.Create(
      "pka", core::SamplerParams().Set("random_representative",
                                       rodinia_tuning)));
  // Sec. 5.1: Sieve's KDE clustering is turned off on the ML suite, where
  // it oversamples and caps speedup at 2-5x.
  set.Add(registry.Create(
      "sieve", core::SamplerParams()
                   .Set("random_representative", rodinia_tuning)
                   .Set("use_kde", rodinia_tuning)));
  set.Add(registry.Create("photon"));
  set.Add(registry.Create("stem"));
  return set;
}

std::unique_ptr<core::Sampler> MakeSampler(
    const std::string& name, const core::SamplerParams& params) {
  baselines::EnsureBuiltinSamplers();
  return core::SamplerRegistry::Global().Create(name, params);
}

std::unique_ptr<core::Sampler> MakeSampler(const std::string& name) {
  return MakeSampler(name, core::SamplerParams());
}

}  // namespace stemroot::bench
