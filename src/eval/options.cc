#include "eval/options.h"

#include <limits>
#include <optional>
#include <stdexcept>

#include "common/log.h"
#include "common/parallel.h"
#include "common/trace_events.h"
#include "eval/trace_cache.h"

namespace stemroot::eval {

const std::vector<FlagSpec>& EveryCommandFlags() {
  static const std::vector<FlagSpec> block = {
      {"threads", FlagKind::kUint, "0", "0 = auto; never changes results",
       static_cast<uint64_t>(std::numeric_limits<int>::max())},
      {"trace", FlagKind::kPath, "", "write Chrome trace events"},
      {"log-level", FlagKind::kString, "", "silent|warn|inform|debug"},
  };
  return block;
}

const std::vector<FlagSpec>& PipelineFlags() {
  static const std::vector<FlagSpec> block = {
      {"seed", FlagKind::kUint, "42", "master seed of every stage"},
      {"scale", FlagKind::kDouble, "1", "workload size scale (> 0)"},
      {"cache", FlagKind::kPath, DefaultTraceCacheDir(),
       "profiled-trace cache (results are cache-invariant)"},
      {"manifest", FlagKind::kPath, "", "write the run manifest"},
      {"ledger", FlagKind::kPath, "", "append the manifest on success"},
      {"trace-chunk-invocations", FlagKind::kUint, "0",
       "out-of-core chunk capacity (0 = in memory)"},
      {"trace-spill", FlagKind::kPath, "", "spill the trace to this dir"},
  };
  return block;
}

void CheckCommonFlags(const Flags& flags) {
  if (flags.Declares("scale") && !(flags.Double("scale") > 0.0))
    throw FlagError("options: --scale must be > 0");
  const std::string level = flags.String("log-level");
  if (!level.empty() && !LogLevelFromName(level))
    throw FlagError("options: unknown --log-level '" + level +
                    "' (available: silent, warn, inform, debug)");
  if (flags.Declares("manifest") && !flags.Path("manifest").empty() &&
      flags.Path("manifest") == flags.Path("ledger"))
    throw FlagError("options: --manifest and --ledger name the same file");
}

void ApplyCommonFlags(const Flags& flags) {
  SetNumThreads(static_cast<int>(flags.Uint("threads")));
  if (!flags.Path("trace").empty()) trace_events::SetEnabled(true);
  if (const std::optional<LogLevel> level =
          LogLevelFromName(flags.String("log-level")))
    SetLogLevel(*level);
}

Pipeline::Options PipelineOptions(const Flags& flags) {
  Pipeline::Options options;
  options.seed = flags.Uint("seed");
  options.size_scale = flags.Double("scale");
  options.trace_chunk_invocations = flags.Uint("trace-chunk-invocations");
  options.trace_spill_dir = flags.Path("trace-spill");
  return options;
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
