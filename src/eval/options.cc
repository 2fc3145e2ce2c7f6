#include "eval/options.h"

#include <limits>
#include <stdexcept>

#include "common/log.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/trace_events.h"
#include "eval/trace_cache.h"

namespace stemroot::eval {

Pipeline::Options CommonOptions::ToPipelineOptions() const {
  Pipeline::Options options;
  options.seed = seed;
  options.size_scale = scale;
  options.trace_chunk_invocations = trace_chunk_invocations;
  options.trace_spill_dir = trace_spill_dir;
  return options;
}

void CommonOptions::Validate() const {
  if (!(scale > 0.0))
    throw std::invalid_argument("options: --scale must be > 0");
  if (threads < 0)
    throw std::invalid_argument("options: --threads must be >= 0");
  if (!log_level.empty() && !LogLevelFromName(log_level))
    throw std::invalid_argument(
        "options: unknown --log-level '" + log_level +
        "' (available: silent, warn, inform, debug)");
  if (!manifest_path.empty() && manifest_path == ledger_path)
    throw std::invalid_argument(
        "options: --manifest and --ledger name the same file");
}

CommonOptions ParseCommonOptions(const Flags& flags, bool pipeline_command) {
  CommonOptions options;
  options.seed = flags.GetUint("seed", 42);
  options.scale = flags.GetDouble("scale", 1.0);
  options.threads = static_cast<int>(
      flags.GetUint("threads", 0, std::numeric_limits<int>::max()));
  options.trace_path = flags.GetString("trace", "");
  options.log_level = flags.GetString("log-level", "");
  if (pipeline_command) {
    options.cache_dir = flags.GetString("cache", DefaultTraceCacheDir());
    options.manifest_path = flags.GetString("manifest", "");
    options.ledger_path = flags.GetString("ledger", "");
    options.trace_chunk_invocations =
        flags.GetUint("trace-chunk-invocations", 0);
    options.trace_spill_dir = flags.GetString("trace-spill", "");
  }
  options.Validate();
  return options;
}

void ApplyCommonOptions(const CommonOptions& options) {
  options.Validate();
  SetNumThreads(options.threads);
  if (!options.manifest_path.empty() || !options.ledger_path.empty())
    telemetry::SetEnabled(true);
  if (!options.trace_path.empty()) trace_events::SetEnabled(true);
  if (!options.log_level.empty())
    SetLogLevel(*LogLevelFromName(options.log_level));
  if (!options.cache_dir.empty()) SetTraceCacheDir(options.cache_dir);
}

workloads::SuiteId ResolveSuite(const std::string& name) {
  if (auto suite = workloads::SuiteFromName(name)) return *suite;
  std::string known;
  for (workloads::SuiteId id : workloads::AllSuites()) {
    if (!known.empty()) known += ", ";
    known += workloads::ToName(id);
  }
  throw std::invalid_argument("unknown suite '" + name +
                              "' (available: " + known + ")");
}

hw::GpuSpec ResolveGpu(const std::string& name) {
  if (auto spec = hw::GpuSpec::FromName(name)) return *spec;
  std::string known;
  for (const std::string& preset : hw::GpuSpec::PresetNames()) {
    if (!known.empty()) known += ", ";
    known += preset;
  }
  throw std::invalid_argument("unknown gpu '" + name +
                              "' (available: " + known + ")");
}

}  // namespace stemroot::eval
