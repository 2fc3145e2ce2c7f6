#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "baselines/registry.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/str.h"
#include "common/telemetry.h"
#include "common/trace_events.h"
#include "core/sampler_registry.h"
#include "eval/ledger.h"
#include "eval/manifest.h"
#include "eval/options.h"
#include "eval/trace_cache.h"

namespace stemroot::bench {

namespace {

/// The bench grammar: the every-command block plus --ledger and --cache.
std::vector<FlagSpec> BenchFlags() {
  std::vector<FlagSpec> table = eval::EveryCommandFlags();
  table.push_back({"ledger", FlagKind::kPath, eval::Ledger::DefaultPath(),
                   "append the finished run's manifest"});
  table.push_back({"cache", FlagKind::kPath, eval::DefaultTraceCacheDir(),
                   "profiled-trace cache (results are cache-invariant)"});
  return table;
}

}  // namespace

Session::Session(int argc, const char* const* argv,
                 const BenchmarkParser& benchmark) {
  name_ = std::filesystem::path(argc > 0 ? argv[0] : "").filename();
  if (name_.empty()) name_ = "bench";

  // Split off google-benchmark's words (when this bench takes them) and
  // parse the rest; nothing is written until both parsers accept.
  std::vector<const char*> ours;
  // google-benchmark's parser reorders the pointers, never the strings.
  std::vector<char*> foreign = {const_cast<char*>(argv[0])};
  for (int i = 1; i < argc; ++i) {
    const std::string_view word = argv[i];
    if (!benchmark || !word.starts_with("--benchmark_")) {
      ours.push_back(argv[i]);
      continue;
    }
    foreign.push_back(const_cast<char*>(argv[i]));
    // google-benchmark refuses a malformed count below.
    const std::string_view value = word.substr(word.find('=') + 1);
    if (word.starts_with("--benchmark_filter="))
      benchmark_filter_ = value;
    else if (word.starts_with("--benchmark_repetitions="))
      benchmark_repetitions_ =
          static_cast<uint32_t>(ParseUint(value).value_or(0));
  }
  const std::vector<FlagSpec> table = BenchFlags();
  Flags flags;
  try {
    flags = Flags::Parse(static_cast<int>(ours.size()), ours.data(), table);
    if (flags.Help()) {
      std::printf("usage: %s [flags]\n\nflags:\n%s%s", name_.c_str(),
                  FlagHelp(table).c_str(),
                  benchmark ? "  --benchmark_*=V               passed on to "
                              "google-benchmark\n"
                            : "");
      std::exit(0);
    }
    eval::CheckCommonFlags(flags);
  } catch (const FlagError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  if (benchmark) {
    int count = static_cast<int>(foreign.size());
    foreign.push_back(nullptr);
    if (!benchmark(&count, foreign.data())) std::exit(2);
  }

  eval::ApplyCommonFlags(flags);
  if (!flags.Path("cache").empty())
    eval::SetTraceCacheDir(flags.Path("cache"));
  trace_path_ = flags.Path("trace");
  ledger_path_ = flags.Path("ledger");
  threads_ = NumThreads();
  std::printf("[threads: %d -- results are thread-count invariant]\n",
              threads_);
  telemetry::SetEnabled(true);
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
  if (!trace_path_.empty()) {
    try {
      trace_events::WriteTrace(trace_path_);
      std::printf("trace: %s\n", trace_path_.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace export failed: %s\n", e.what());
    }
  }

  // Finalize the run manifest (wall time, stages, counters,
  // distributions) and append it to the perf ledger -- the always-on
  // machine-readable summary sweep scripts and `stemroot regress` consume.
  WriteManifest(/*completed=*/true);
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
