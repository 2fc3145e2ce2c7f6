/// \file
/// stemroot — command-line front end to the library, mirroring the
/// paper's Fig. 5 pipeline as composable steps over trace files
/// (`stemroot --help` lists the commands, `stemroot COMMAND --help` one
/// command's flags).
///
/// Every command declares its flags once, in the command table at the end
/// of this file: its own rows plus the shared blocks it takes (every
/// command: eval::EveryCommandFlags; pipeline commands:
/// eval::PipelineFlags, with a run manifest; sampler commands: the
/// parameters the registered samplers declare). main parses the whole
/// command line against that table before any work and exits 2 on a flag
/// error; the same table prints `--help`.
///
/// `run` routes through service::Service::RunBatch, so the batch command
/// and a served session share one typed configuration path
/// (service::SessionConfig). Stage wiring goes through eval::Pipeline (one
/// master --seed per command; per-stage seeds derive from it) and
/// samplers are built through core::SamplerRegistry, so the CLI, benches,
/// and tests share one code path. `validate KIND` only wires flags to the
/// check that lives beside each format's writer.
///
/// Trace files are chunked "SRTC" files (trace/chunked.h); sampling plans
/// are CSVs of (invocation, weight) -- the "sampling information" a
/// simulator embeds.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "baselines/registry.h"
#include "common/build_info.h"
#include "common/cache.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/journal.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/json.h"
#include "common/resource.h"
#include "common/str.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "common/trace_events.h"
#include "core/sampler_registry.h"
#include "core/stem.h"
#include "eval/audit.h"
#include "eval/dse.h"
#include "eval/journal_tail.h"
#include "eval/ledger.h"
#include "eval/manifest.h"
#include "eval/options.h"
#include "eval/pipeline.h"
#include "eval/regress.h"
#include "eval/stream.h"
#include "eval/trace_cache.h"
#include "hw/profile.h"
#include "service/metrics.h"
#include "service/server.h"
#include "service/service.h"
#include "trace/chunked.h"
#include "workloads/suite.h"

using namespace stemroot;

namespace {


/// The sampler-parameter block: each key a registered sampler declares,
/// once, its help line naming the methods that take it.
const std::vector<FlagSpec>& SamplerFlags() {
  static const std::vector<FlagSpec> block = [] {
    baselines::EnsureBuiltinSamplers();
    const core::SamplerRegistry& registry = core::SamplerRegistry::Global();
    std::vector<FlagSpec> out;
    for (const std::string& method : registry.Names())
      for (const FlagSpec& param : registry.Params(method)) {
        const auto seen = std::find_if(
            out.begin(), out.end(),
            [&param](const FlagSpec& f) { return f.name == param.name; });
        if (seen == out.end()) {
          out.push_back(param);
          out.back().help = method + ": " + param.help;
        } else {
          seen->help.insert(seen->help.find(':'), ", " + method);
        }
      }
    return out;
  }();
  return block;
}

/// Refuse a --method name the registry does not know, and a sampler
/// parameter that none of the --method list takes (a flag the command
/// declares itself, like audit's --epsilon, is exempt).
void CheckSamplerKeys(const Flags& flags, const std::vector<FlagSpec>& own) {
  const core::SamplerRegistry& registry = core::SamplerRegistry::Global();
  std::set<std::string> taken;
  std::string takes;
  for (const std::string& method : flags.List("method")) {
    std::vector<FlagSpec> params;
    try {
      params = registry.Params(method);
    } catch (const std::invalid_argument& e) {
      throw FlagError(std::string("Flags: --method: ") + e.what());
    }
    for (const FlagSpec& param : params)
      if (taken.insert(param.name).second)
        takes += (takes.empty() ? "--" : ", --") + param.name;
  }
  for (const FlagSpec& spec : SamplerFlags())
    if (flags.Has(spec.name) && taken.count(spec.name) == 0 &&
        FindFlag(own, spec.name) == nullptr)
      throw FlagError("Flags: --" + spec.name +
                      " is not a parameter of --method " +
                      flags.String("method") + " (it takes: " +
                      (takes.empty() ? "none" : takes) + ")");
}

/// The sampler parameters given on the command line; each factory reads
/// the keys it declared.
core::SamplerParams SamplerParamsFromFlags(const Flags& flags) {
  core::SamplerParams params;
  for (const FlagSpec& spec : SamplerFlags())
    if (flags.Has(spec.name)) params.Set(spec.name, flags.String(spec.name));
  return params;
}

std::unique_ptr<core::Sampler> MakeSampler(const Flags& flags) {
  return core::SamplerRegistry::Global().Create(flags.String("method"),
                                                SamplerParamsFromFlags(flags));
}

/// `stem` with the --epsilon/--confidence given on the command line.
void ReadErrorBound(const Flags& flags, core::StemConfig& stem) {
  if (flags.Has("epsilon")) stem.epsilon = flags.Double("epsilon");
  if (flags.Has("confidence")) stem.confidence = flags.Double("confidence");
}

/// Record the sampler-side configuration in the manifest: the registry
/// method name plus the epsilon/confidence the error model resolves (flag
/// values when given, StemConfig defaults for the stem method, 0 for
/// baselines that have no epsilon contract).
void FillSamplerConfig(eval::RunManifest& manifest, const Flags& flags) {
  manifest.config.method = flags.String("method");
  const bool stem = manifest.config.method == "stem";
  core::StemConfig bound;
  ReadErrorBound(flags, bound);
  manifest.config.epsilon =
      stem || flags.Has("epsilon") ? bound.epsilon : 0.0;
  manifest.config.confidence =
      stem || flags.Has("confidence") ? bound.confidence : 0.0;
}

/// Stamp the manifest's mem block from the resource subsystem: the
/// physical peak (from VmHWM/ru_maxrss) plus the deterministic logical
/// per-category peaks, which telemetry -- on whenever a manifest or
/// ledger is written -- has been charging all along.
void FillMem(eval::RunManifest& manifest) {
  manifest.mem.present = true;
  manifest.mem.peak_rss_bytes = resource::PeakRssBytes();
  manifest.mem.samples = resource::GetStats().samples;
  manifest.mem.logical = resource::LogicalPeaks();
}

int CmdGenerate(const Flags& flags, eval::RunManifest& manifest) {
  const workloads::SuiteId suite = eval::ResolveSuite(flags.String("suite"));
  const std::string workload = flags.String("workload");
  const std::string out = flags.String("out");

  const eval::Pipeline pipeline = eval::Pipeline::Generate(
      {.suite = suite,
       .workload = workload,
       .options = eval::PipelineOptions(flags)});
  pipeline.FillManifest(manifest);
  SpillTraceChunked(pipeline.Trace(), out);
  std::printf("wrote %s: %zu invocations, %zu kernel types (unprofiled)\n",
              out.c_str(), pipeline.Trace().NumInvocations(),
              pipeline.Trace().NumKernelTypes());
  return 0;
}

int CmdProfile(const Flags& flags, eval::RunManifest& manifest) {
  const std::string in = flags.String("in");
  const std::string out = flags.String("out");
  const hw::GpuSpec spec = eval::ResolveGpu(flags.String("gpu"));
  const std::string csv = flags.Path("csv");

  // The temporary FileChunkSource closes its reader before the spill
  // below truncates `out`, which may be the same path as `in`.
  eval::Pipeline pipeline = eval::Pipeline::FromTrace(
      AssembleTrace(FileChunkSource(in)), eval::PipelineOptions(flags));
  pipeline.Profile(spec);
  pipeline.FillManifest(manifest);
  SpillTraceChunked(pipeline.Trace(), out);
  if (!csv.empty()) ExportTimelineCsv(pipeline.Trace(), csv);
  std::printf("profiled %zu invocations on %s: total %s\n",
              pipeline.Trace().NumInvocations(), spec.name.c_str(),
              HumanDuration(pipeline.Trace().TotalDurationUs()).c_str());
  return 0;
}

int CmdInfo(const Flags& flags, eval::RunManifest& manifest) {
  const std::string in = flags.String("in");
  const uint64_t top = flags.Uint("top");

  const KernelTrace trace = AssembleTrace(FileChunkSource(in));
  manifest.config.workload = trace.WorkloadName();
  std::printf("%s: %zu invocations, %zu kernel types\n",
              trace.WorkloadName().c_str(), trace.NumInvocations(),
              trace.NumKernelTypes());
  if (trace.TotalDurationUs() <= 0.0) {
    std::printf("(unprofiled -- run `stemroot profile` first for timing "
                "stats)\n");
    return 0;
  }
  const hw::WorkloadProfile profile = hw::WorkloadProfile::FromTrace(trace);
  std::printf("total %s; top kernels by time:\n",
              HumanDuration(profile.total_duration_us).c_str());
  uint64_t shown = 0;
  for (const hw::KernelProfile* kp : profile.ByTotalTime()) {
    if (shown++ >= top) break;
    std::printf("  %-36s n=%-8zu mean=%9.1fus CoV=%.3f peaks=%zu "
                "share=%.1f%%\n",
                kp->name.c_str(), kp->stats.count, kp->stats.mean,
                kp->stats.Cov(), kp->CountPeaks(),
                kp->stats.sum / profile.total_duration_us * 100.0);
  }
  return 0;
}

int CmdSample(const Flags& flags, eval::RunManifest& manifest) {
  const std::string in = flags.String("in");
  const std::string out = flags.String("out");
  const std::unique_ptr<core::Sampler> sampler = MakeSampler(flags);
  FillSamplerConfig(manifest, flags);

  const eval::Pipeline pipeline = eval::Pipeline::FromTrace(
      AssembleTrace(FileChunkSource(in)), eval::PipelineOptions(flags));
  pipeline.FillManifest(manifest);
  const core::SamplingPlan plan = pipeline.Sample(*sampler);
  CsvWriter csv(out);
  csv.WriteHeader({"invocation", "weight"});
  for (const core::SampleEntry& entry : plan.entries)
    csv.WriteRow({std::to_string(entry.invocation),
                  Format("%.6f", entry.weight)});
  csv.Flush();
  std::printf("%s: %zu samples (%zu distinct) over %zu clusters -> %s\n",
              plan.method.c_str(), plan.NumSamples(),
              plan.DistinctInvocations().size(), plan.num_clusters,
              out.c_str());
  if (plan.theoretical_error > 0.0)
    std::printf("theoretical error bound: %.3f%%\n",
                plan.theoretical_error * 100.0);
  return 0;
}

void PrintResult(const eval::EvalResult& result) {
  std::printf("%s on %s: error %.4f%%  speedup %.2fx  (%zu samples, "
              "%zu clusters)\n",
              result.method.c_str(), result.workload.c_str(),
              result.error_pct, result.speedup, result.num_samples,
              result.num_clusters);
}

int CmdEvaluate(const Flags& flags, eval::RunManifest& manifest) {
  const std::string in = flags.String("in");
  const uint32_t reps = static_cast<uint32_t>(flags.Uint("reps"));
  const std::unique_ptr<core::Sampler> sampler = MakeSampler(flags);
  FillSamplerConfig(manifest, flags);
  manifest.config.reps = reps;

  const eval::Pipeline pipeline = eval::Pipeline::FromTrace(
      AssembleTrace(FileChunkSource(in)), eval::PipelineOptions(flags));
  pipeline.FillManifest(manifest);
  const eval::EvalResult result = pipeline.Evaluate(*sampler, reps);
  manifest.FillMetrics(result);
  PrintResult(result);
  return 0;
}

int CmdRun(const Flags& flags, eval::RunManifest& manifest) {
  // `run` is the batch entry of the resident service: one typed
  // SessionConfig drives both, so a served session's manifest compares
  // clean against this command's (see service/service.h).
  service::SessionConfig config;
  config.method = flags.String("method");
  config.params = SamplerParamsFromFlags(flags);
  config.seed = flags.Uint("seed");
  config.scale = flags.Double("scale");
  config.reps = static_cast<uint32_t>(flags.Uint("reps"));
  config.suite = flags.String("suite");
  config.workload = flags.String("workload");
  config.gpu = flags.String("gpu");
  config.trace_chunk_invocations = flags.Uint("trace-chunk-invocations");
  config.trace_spill_dir = flags.Path("trace-spill");
  FillSamplerConfig(manifest, flags);
  config.epsilon = manifest.config.epsilon;
  config.confidence = manifest.config.confidence;

  const eval::EvalResult result = service::Service::RunBatch(config,
                                                             &manifest);
  PrintResult(result);
  if (telemetry::Enabled()) {
    manifest.FillFromSnapshot(telemetry::Capture());
    std::printf("%s", manifest.StagesText().c_str());
  }
  return 0;
}

int CmdStream(const Flags& flags, eval::RunManifest& manifest) {
  // Out-of-core streaming pass (DESIGN.md section 16): generate+profile a
  // base workload (trace-cache aware), optionally spill it chunked, then
  // stream a chunk iterator -- replicated out to --target-invocations
  // when asked -- through online duration stats and streaming ROOT. The
  // resident trace footprint is header + 2 chunk budgets regardless of
  // the logical timeline length, which the manifest mem block records.
  const workloads::SuiteId suite = eval::ResolveSuite(flags.String("suite"));
  const std::string workload = flags.String("workload");
  const hw::GpuSpec spec = eval::ResolveGpu(flags.String("gpu"));
  const uint64_t target = flags.Uint("target-invocations");
  const bool cluster = flags.Bool("cluster");

  eval::StreamOptions stream_options;
  stream_options.seed = flags.Uint("seed");
  stream_options.cluster = cluster;
  core::StemConfig& stem = stream_options.clustering.root.stem;
  ReadErrorBound(flags, stem);
  manifest.config.epsilon = stem.epsilon;
  manifest.config.confidence = stem.confidence;

  const eval::Pipeline pipeline = eval::Pipeline::GenerateProfiled(
      {.suite = suite,
       .workload = workload,
       .options = eval::PipelineOptions(flags)},
      spec);
  pipeline.FillManifest(manifest);

  const uint64_t cap = flags.Uint("trace-chunk-invocations") > 0
                           ? flags.Uint("trace-chunk-invocations")
                           : kDefaultChunkInvocations;
  std::unique_ptr<ChunkSource> source;
  if (target > pipeline.Trace().NumInvocations()) {
    // Synthetic scale-up: tile the profiled base out to the target without
    // materializing it (the 10^8..10^9 bounded-memory suites).
    source = std::make_unique<ReplicatedChunkSource>(pipeline.Trace(), target,
                                                     cap);
  } else {
    source = pipeline.MakeChunkSource();
  }

  const eval::StreamResult result = eval::StreamTrace(*source, stream_options);

  manifest.trace_spill.present = true;
  manifest.trace_spill.chunk_invocations = source->ChunkCapacity();
  manifest.trace_spill.chunks = result.chunks;
  manifest.trace_spill.bytes = pipeline.Spill().bytes;

  std::printf("streamed %llu invocations in %llu chunks (cap %llu)\n",
              static_cast<unsigned long long>(result.invocations),
              static_cast<unsigned long long>(result.chunks),
              static_cast<unsigned long long>(source->ChunkCapacity()));
  std::printf("  total duration: %.1f us  mean %.3f us  stddev %.3f us\n",
              result.total_duration_us, result.durations.Mean(),
              result.durations.Stddev());
  if (cluster)
    std::printf("  clusters: %zu  (splits %llu, merges %llu)\n",
                result.clusters.size(),
                static_cast<unsigned long long>(result.splits),
                static_cast<unsigned long long>(result.merges));
  std::printf(
      "  resident trace budget: %.1f MiB (header + 2 chunks)%s\n",
      static_cast<double>(result.resident_budget_bytes) / (1024.0 * 1024.0),
      pipeline.Spill().enabled
          ? (" | spill: " + pipeline.Spill().path +
             (pipeline.Spill().reused ? " (reused)" : " (written)"))
                .c_str()
          : "");
  return 0;
}

int CmdAudit(const Flags& flags, eval::RunManifest& manifest) {
  const workloads::SuiteId suite = eval::ResolveSuite(flags.String("suite"));
  const hw::GpuSpec spec = eval::ResolveGpu(flags.String("gpu"));
  const std::unique_ptr<core::Sampler> sampler = MakeSampler(flags);

  eval::AuditOptions options;
  options.trials = static_cast<uint32_t>(flags.Uint("trials"));
  options.seed = flags.Uint("seed");
  options.size_scale = flags.Double("scale");
  // The audit's reference budget uses the same epsilon/confidence flags
  // the sampler factory consumes, so both sides see one configuration.
  ReadErrorBound(flags, options.root.stem);
  options.only_workloads = flags.List("workload");
  const std::string json_path = flags.Path("json");
  const double min_within = flags.Double("min-within");
  FillSamplerConfig(manifest, flags);
  manifest.config.suite = flags.String("suite");
  manifest.config.gpu = spec.name;
  manifest.config.seed = options.seed;
  manifest.config.scale = options.size_scale;
  manifest.config.reps = options.trials;
  manifest.config.epsilon = options.root.stem.epsilon;
  manifest.config.confidence = options.root.stem.confidence;

  const eval::AuditReport report =
      eval::AuditSuite(suite, *sampler, spec, options);
  std::printf("%s", report.ToText().c_str());
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot write " + json_path);
    out << report.ToJson();
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (report.WithinBudgetFraction() < min_within) {
    std::fprintf(stderr,
                 "audit: within-budget fraction %.3f below --min-within "
                 "%.3f\n",
                 report.WithinBudgetFraction(), min_within);
    return 1;
  }
  return 0;
}

/// Resolve --variants (a comma list of tokens) against the standard
/// Table 4 variant set; absent means all five.
std::vector<eval::DseVariant> ParseVariants(const Flags& flags,
                                            const hw::GpuSpec& base) {
  static const std::string kTokens[] = {"baseline", "cache_x2", "cache_half",
                                        "sm_x2", "sm_half"};
  const std::vector<eval::DseVariant> all = eval::StandardDseVariants(base);
  if (!flags.Has("variants")) return all;
  std::vector<eval::DseVariant> out;
  for (const std::string& token : flags.List("variants")) {
    const auto* it = std::find(std::begin(kTokens), std::end(kTokens), token);
    if (it == std::end(kTokens))
      throw std::invalid_argument(
          "unknown variant '" + token +
          "' (available: baseline, cache_x2, cache_half, sm_x2, sm_half)");
    out.push_back(all[it - std::begin(kTokens)]);
  }
  return out;
}

int CmdDse(const Flags& flags, eval::RunManifest& manifest) {
  const workloads::SuiteId suite = eval::ResolveSuite(flags.String("suite"));
  const std::vector<std::string> workload_names = flags.List("workload");
  const hw::GpuSpec spec = eval::ResolveGpu(flags.String("gpu"));
  const std::vector<std::string> methods = flags.List("method");
  const eval::Pipeline::Options options = eval::PipelineOptions(flags);

  eval::DseSweepOptions sweep_options;
  sweep_options.seed = options.seed;
  const std::vector<eval::DseVariant> variants = ParseVariants(flags, spec);
  const std::string csv_path = flags.Path("csv");

  std::string joined_methods;
  for (const std::string& m : methods) {
    if (!joined_methods.empty()) joined_methods += '+';
    joined_methods += m;
  }
  manifest.config.suite = workloads::ToName(suite);
  manifest.config.workload = flags.String("workload");
  manifest.config.gpu = spec.name;
  manifest.config.method = joined_methods;

  // One parameter bag for every method: each factory reads the keys it
  // declared.
  const core::SamplerParams sampler_params = SamplerParamsFromFlags(flags);
  std::vector<std::unique_ptr<core::Sampler>> samplers;
  for (const std::string& method : methods)
    samplers.push_back(
        core::SamplerRegistry::Global().Create(method, sampler_params));

  // Generate + profile every workload once (served by the trace cache on
  // warm runs) and build the plans from the baseline profile -- the
  // Sec. 5.4 protocol. Traces stay alive in the pipelines for the sweep.
  std::vector<eval::Pipeline> pipelines;
  std::vector<std::vector<core::SamplingPlan>> plans(workload_names.size());
  for (size_t w = 0; w < workload_names.size(); ++w) {
    pipelines.push_back(eval::Pipeline::GenerateProfiled(
        {.suite = suite, .workload = workload_names[w], .options = options},
        spec));
    for (const std::unique_ptr<core::Sampler>& sampler : samplers)
      plans[w].push_back(pipelines.back().Sample(*sampler));
  }
  std::vector<eval::DseWorkload> sweep_workloads;
  for (size_t w = 0; w < pipelines.size(); ++w)
    sweep_workloads.push_back({&pipelines[w].Trace(), plans[w]});

  const eval::DseSweep sweep(variants, sweep_options);
  const eval::DseSweepResult result = sweep.Run(sweep_workloads);

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path);
    csv.WriteHeader({"variant", "workload", "method", "full_megacycles",
                     "estimated_megacycles", "error_pct"});
    for (const eval::DsePointResult& point : result.points)
      for (const eval::DsePointMethod& row : point.methods)
        csv.WriteRow({point.variant, point.workload, row.method,
                      Format("%.4f", point.full_cycles / 1e6),
                      Format("%.4f", row.estimated_cycles / 1e6),
                      Format("%.4f", row.error_pct)});
    csv.Flush();
    std::printf("per-point results: %s\n", csv_path.c_str());
  }

  // Plans carry the samplers' display names (e.g. "STEM"), not the
  // registry keys the flags use.
  std::vector<std::string> method_names;
  for (const std::unique_ptr<core::Sampler>& sampler : samplers)
    method_names.push_back(sampler->Name());
  std::vector<std::string> headers = {"uarch change"};
  for (const std::string& m : method_names) headers.push_back(m + " err(%)");
  TextTable table(headers);
  table.SetTitle("DSE: average sampled-simulation error (%) per variant");
  for (size_t v = 0; v < variants.size(); ++v) {
    std::vector<std::string> cells = {variants[v].name};
    for (const std::string& m : method_names)
      cells.push_back(TextTable::Num(result.MeanErrorPct(v, m), 2));
    table.AddRow(std::move(cells));
  }
  std::printf("%s\n", table.Render().c_str());

  double error_sum = 0.0;
  uint64_t kernels = 0;
  for (const eval::DsePointResult& point : result.points) {
    error_sum += point.MeanErrorPct();
    for (const eval::DsePointMethod& row : point.methods)
      kernels += row.kernels_simulated;
  }
  manifest.metrics.present = true;
  manifest.metrics.error_pct =
      result.points.empty()
          ? 0.0
          : error_sum / static_cast<double>(result.points.size());
  manifest.metrics.num_samples = kernels;
  std::printf("%zu points (%zu variants x %zu workloads), mean error "
              "%.4f%%\n",
              result.points.size(), result.num_variants,
              result.num_workloads, manifest.metrics.error_pct);
  return 0;
}

int CmdCache(const Flags& flags, eval::RunManifest&) {
  const std::vector<std::string>& pos = flags.Positional();
  const std::string action = pos.empty() ? "stats" : pos[0];
  const std::string dir = flags.Path("cache");
  const uint64_t max_bytes = flags.Uint("max-bytes");
  if (dir.empty())
    throw std::invalid_argument("cache: --cache none names no directory");
  const ArtifactCache cache(dir);

  if (action == "stats") {
    const ArtifactCache::Stats stats = cache.GetStats();
    std::printf("%s: %llu entries, %llu bytes (%s)\n", dir.c_str(),
                static_cast<unsigned long long>(stats.entries),
                static_cast<unsigned long long>(stats.bytes),
                HumanCount(static_cast<double>(stats.bytes)).c_str());
    return 0;
  }
  if (action == "verify") {
    size_t bad = 0;
    for (const ArtifactCache::EntryInfo& info : cache.Verify()) {
      if (info.valid) {
        std::printf("ok      %s (%llu bytes)\n", info.file.c_str(),
                    static_cast<unsigned long long>(info.bytes));
      } else {
        ++bad;
        std::printf("corrupt %s (%llu bytes): %s\n", info.file.c_str(),
                    static_cast<unsigned long long>(info.bytes),
                    info.problem.c_str());
      }
    }
    if (bad > 0) {
      std::fprintf(stderr,
                   "cache: %zu defective entr%s (each is treated as a "
                   "miss; evict to reclaim the space)\n",
                   bad, bad == 1 ? "y" : "ies");
      return 1;
    }
    std::printf("cache: all entries verify clean\n");
    return 0;
  }
  if (action == "evict") {
    const uint64_t removed = cache.Evict(max_bytes);
    const ArtifactCache::Stats stats = cache.GetStats();
    std::printf("evicted %llu entr%s; %llu entries, %llu bytes remain\n",
                static_cast<unsigned long long>(removed),
                removed == 1 ? "y" : "ies",
                static_cast<unsigned long long>(stats.entries),
                static_cast<unsigned long long>(stats.bytes));
    return 0;
  }
  throw std::invalid_argument("cache: unknown action '" + action +
                              "' (stats, verify, evict)");
}

int CmdCompare(const Flags& flags, eval::RunManifest&) {
  const std::vector<std::string>& paths = flags.Positional();
  eval::CompareOptions options;
  options.allow_config_diff = flags.Bool("allow-config-diff");

  const eval::RunManifest a = eval::RunManifest::Load(paths[0]);
  const eval::RunManifest b = eval::RunManifest::Load(paths[1]);
  const eval::CompareReport report = eval::CompareManifests(a, b);
  std::printf("A: %s\nB: %s\n%s", paths[0].c_str(), paths[1].c_str(),
              report.ToText().c_str());
  const int rc = report.ExitCode(options);
  if (rc == eval::kExitNotComparable)
    std::fprintf(stderr,
                 "compare: configs differ (pass --allow-config-diff true "
                 "for an informational diff)\n");
  else if (rc == eval::kExitRegression)
    std::fprintf(stderr, "compare: deterministic drift detected\n");
  return rc;
}

int CmdRegress(const Flags& flags, eval::RunManifest&) {
  const std::string journal_path = flags.Path("journal");
  const std::string ledger_path = flags.Path("ledger");
  if (journal_path.empty() && ledger_path.empty())
    throw FlagError("Flags: regress needs --ledger or --journal");
  eval::RegressOptions options;
  options.window = flags.Uint("window");
  options.min_history = flags.Uint("min-history");
  options.mad_factor = flags.Double("mad-factor");
  options.rel_slack = flags.Double("rel-slack");
  options.accuracy_slack_pct = flags.Double("accuracy-slack");
  options.max_journal_errors = flags.Uint("max-journal-errors");
  options.max_journal_dropped =
      flags.Has("max-journal-dropped")
          ? static_cast<int64_t>(flags.Uint("max-journal-dropped"))
          : -1;

  eval::RegressReport report;
  if (!ledger_path.empty()) {
    const eval::Ledger ledger = eval::Ledger::Load(ledger_path);
    if (ledger.num_skipped() > 0)
      std::fprintf(stderr,
                   "regress: skipped %zu unparseable ledger line(s)\n",
                   ledger.num_skipped());
    report = eval::CheckRegression(ledger, options);
  }
  if (!journal_path.empty()) {
    // Journal-file gating composes with (or replaces) the ledger gates:
    // a serve run's journal can be checked on its own, no ledger needed.
    const eval::JournalSummary summary =
        eval::SummarizeJournalFile(journal_path);
    eval::AddJournalGates(summary, options, report);
    std::printf(
        "journal: %llu events (%llu warn, %llu error), %llu dropped, "
        "%llu unparseable line(s)\n",
        static_cast<unsigned long long>(summary.events),
        static_cast<unsigned long long>(summary.warnings),
        static_cast<unsigned long long>(summary.errors),
        static_cast<unsigned long long>(summary.dropped),
        static_cast<unsigned long long>(summary.unparseable));
  }
  std::printf("%s", report.ToText().c_str());
  if (report.HasRegression())
    std::fprintf(stderr, "regress: regression detected\n");
  return report.ExitCode();
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// One `KEY=VALUE` item of `--flag`; both halves must be non-empty.
std::pair<std::string, std::string> KeyValue(const std::string& flag,
                                             const std::string& item) {
  const size_t eq = item.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size())
    throw std::invalid_argument("--" + flag + " wants KEY=VALUE, got '" +
                                item + "'");
  return {item.substr(0, eq), item.substr(eq + 1)};
}

/// The `KEY=BYTES` items of list flag `--flag`.
std::vector<std::pair<std::string, uint64_t>> ByteSpecs(
    const Flags& flags, const std::string& flag) {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const std::string& item : flags.List(flag)) {
    const auto [key, text] = KeyValue(flag, item);
    const std::optional<uint64_t> bytes = ParseUint(text);
    if (!bytes)
      throw std::invalid_argument("--" + flag + " wants KEY=BYTES with "
                                  "BYTES >= 0, got '" + item + "'");
    out.emplace_back(key, *bytes);
  }
  return out;
}

/// Every name in `required` occurs in `seen`; otherwise `error` names the
/// first missing one.
bool RequireAll(const std::vector<std::string>& required,
                const std::vector<std::string>& seen, const char* what,
                std::string* error) {
  for (const std::string& name : required)
    if (std::find(seen.begin(), seen.end(), name) == seen.end()) {
      *error = Format("missing required %s \"%s\"", what, name.c_str());
      return false;
    }
  return true;
}

/// `validate manifest`: the schema, the service.* counter-name lint and
/// the requirement flags for every file.
int CmdValidateManifest(const Flags& flags, eval::RunManifest&) {
  const std::vector<std::string> stages = flags.List("require-stage");
  const std::vector<std::string> counters = flags.List("require-counter");
  std::vector<std::pair<std::string, std::string>> stage_leq;
  for (const std::string& item : flags.List("stage-leq"))
    stage_leq.push_back(KeyValue("stage-leq", item));
  const bool require_completed = flags.Bool("require-completed");
  const bool require_spill = flags.Bool("require-spill");
  const auto max_logical = ByteSpecs(flags, "max-logical");

  int rc = 0;
  for (const std::string& path : flags.Positional()) {
    eval::RunManifest manifest;
    try {
      manifest = eval::RunManifest::Load(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "validate: %s\n", e.what());
      rc = 1;
      continue;
    }
    std::vector<std::string> problems;
    for (const auto& [name, value] : manifest.counters)
      if (name.starts_with("service.") &&
          !service::IsRegisteredServiceCounter(name))
        problems.push_back("unregistered service counter '" + name +
                           "' (add it to service::RegisteredServiceCounters "
                           "or rename)");
    for (const std::string& stage : stages)
      if (manifest.FindStage(stage) == nullptr)
        problems.push_back("missing required stage \"" + stage + "\"");
    for (const std::string& counter : counters) {
      const auto it = manifest.counters.find(counter);
      if (it == manifest.counters.end() || it->second == 0)
        problems.push_back("counter \"" + counter + "\" missing or zero");
    }
    for (const auto& [stage, other_path] : stage_leq) {
      const eval::RunManifest other = eval::RunManifest::Load(other_path);
      const auto* mine = manifest.FindStage(stage);
      const auto* theirs = other.FindStage(stage);
      if (mine == nullptr || theirs == nullptr)
        problems.push_back("--stage-leq " + stage + ": stage missing in " +
                           (mine == nullptr ? path : other_path));
      else if (mine->total_us > theirs->total_us)
        problems.push_back(Format(
            "stage \"%s\" took %.1f us, more than %.1f us in %s",
            stage.c_str(), mine->total_us, theirs->total_us,
            other_path.c_str()));
    }
    if (require_completed && !manifest.completed)
      problems.push_back("not a completed run");
    if (require_spill &&
        (!manifest.trace_spill.present || manifest.trace_spill.chunks == 0))
      problems.push_back("missing or empty trace_spill block");
    for (const auto& [key, bytes] : max_logical) {
      const auto it = manifest.mem.logical.find(key);
      if (!manifest.mem.present || it == manifest.mem.logical.end())
        problems.push_back("logical mem category \"" + key + "\" absent");
      else if (it->second > bytes)
        problems.push_back(Format(
            "logical mem \"%s\" = %llu bytes, above the %llu-byte bound",
            key.c_str(), static_cast<unsigned long long>(it->second),
            static_cast<unsigned long long>(bytes)));
    }
    for (const std::string& problem : problems)
      std::fprintf(stderr, "validate: %s: %s\n", path.c_str(),
                   problem.c_str());
    if (!problems.empty()) {
      rc = 1;
      continue;
    }
    std::printf("validate: %s ok (%s %s, %zu stages, completed=%s)\n",
                path.c_str(), manifest.tool.c_str(),
                manifest.command.c_str(), manifest.stages.size(),
                manifest.completed ? "true" : "false");
  }
  return rc;
}

/// Check each positional file's text on its own.
int ValidateFiles(
    const Flags& flags,
    const std::function<bool(const std::string& text, std::string* error)>&
        check) {
  int rc = 0;
  for (const std::string& path : flags.Positional()) {
    std::string error;
    if (check(ReadText(path), &error)) {
      std::printf("validate: %s ok\n", path.c_str());
    } else {
      std::fprintf(stderr, "validate: %s: %s\n", path.c_str(),
                   error.c_str());
      rc = 1;
    }
  }
  return rc;
}

int CmdValidateTrace(const Flags& flags, eval::RunManifest&) {
  const std::vector<std::string> events = flags.List("require-event");
  const uint64_t min_events = flags.Uint("min-events");
  return ValidateFiles(flags, [&](const std::string& text,
                                  std::string* error) {
    std::vector<std::string> names;
    trace_events::TraceInfo info;
    if (!trace_events::ValidateTraceJson(text, error, &names, &info) ||
        !RequireAll(events, names, "event", error))
      return false;
    if (info.events >= min_events) return true;
    *error = Format("%zu events, below --min-events %llu", info.events,
                    static_cast<unsigned long long>(min_events));
    return false;
  });
}

int CmdValidateJournal(const Flags& flags, eval::RunManifest&) {
  const std::vector<std::string> events = flags.List("require-event");
  return ValidateFiles(flags, [&](const std::string& text,
                                  std::string* error) {
    return journal::ValidateJournal(text, events, error);
  });
}

int CmdJournalTail(const Flags& flags, eval::RunManifest&) {
  eval::JournalTailOptions options;
  options.min_severity = flags.String("min-severity");
  options.event = flags.String("verb");
  options.follow = flags.Bool("follow");
  options.poll_ms = flags.Uint("poll-ms");
  if (!options.min_severity.empty() &&
      eval::SeverityRank(options.min_severity) < 0)
    throw std::invalid_argument(
        "journal: unknown --min-severity '" + options.min_severity +
        "' (available: debug, info, warn, error)");

  const eval::JournalTailResult result =
      eval::TailJournal(flags.Positional()[0], options, std::cout);
  std::fprintf(stderr,
               "journal: %llu printed, %llu filtered, %llu unparseable\n",
               static_cast<unsigned long long>(result.printed),
               static_cast<unsigned long long>(result.filtered),
               static_cast<unsigned long long>(result.unparseable));
  return 0;
}

int CmdServe(const Flags& flags, eval::RunManifest&) {
  service::ServerOptions options;
  options.socket_path = flags.String("socket");
  options.service.max_sessions =
      static_cast<uint32_t>(flags.Uint("max-sessions"));
  // Session manifests need counter/stage telemetry; the trace cache makes
  // repeat OpenSession(workload) cheap, exactly like repeat `run`s.
  options.service.enable_telemetry = true;
  options.service.slow_request_us = flags.Double("slow-ms") * 1000.0;
  options.service.cache_dir = flags.Path("cache");
  options.journal_path = flags.Path("journal");
  return service::RunServer(options);
}

/// Render one stats reply as the human view: a header line plus the
/// per-verb latency table. Absent members read as 0.
void PrintStats(const json::Reader& stats) {
  const auto count = [](const json::Reader& r, std::string_view key) {
    return static_cast<unsigned long long>(r.NumberOr(key, 0.0));
  };
  std::printf("uptime %.1fs  sessions %llu/%llu open (%llu opened, %llu "
              "closed)  requests %llu (%llu errors)\n",
              stats.NumberOr("uptime_seconds", 0.0),
              count(stats, "open_sessions"), count(stats, "max_sessions"),
              count(stats, "sessions_opened"), count(stats, "sessions_closed"),
              count(stats, "requests"), count(stats, "errors"));
  std::printf("fed invocations %llu, early stops %llu\n",
              count(stats, "feed_invocations"), count(stats, "early_stops"));
  if (stats.Has("journal")) {
    const json::Reader journal = stats.Object("journal");
    std::printf("journal: %llu emitted, %llu dropped, %llu errors\n",
                count(journal, "emitted"), count(journal, "dropped"),
                count(journal, "errors"));
  }
  if (stats.Has("mem")) {
    const json::Reader mem = stats.Object("mem");
    std::printf("mem: rss %s, high water %s (%llu samples), cpu "
                "%.1fs user + %.1fs system\n",
                HumanCount(mem.NumberOr("rss_bytes", 0.0)).c_str(),
                HumanCount(mem.NumberOr("hwm_bytes", 0.0)).c_str(),
                count(mem, "samples"), mem.NumberOr("cpu_user_seconds", 0.0),
                mem.NumberOr("cpu_system_seconds", 0.0));
    if (mem.Has("logical")) {
      const json::Reader logical = mem.Object("logical");
      if (!logical.Members().empty()) {
        std::string line = "mem logical peaks:";
        for (const auto& [category, bytes] : logical.Members())
          line += Format(" %s=%s", category.c_str(),
                         HumanCount(logical.Number(category)).c_str());
        std::printf("%s\n", line.c_str());
      }
    }
  }
  if (!stats.Has("verbs")) return;
  TextTable table({"Verb", "Requests", "Errors", "Mean", "p50", "p90",
                   "p99", "Max"});
  for (const auto& [verb, value] : stats.Object("verbs").Members()) {
    const json::Reader v(value, verb);
    table.AddRow({verb, Format("%llu", count(v, "requests")),
                  Format("%llu", count(v, "errors")),
                  HumanDuration(v.NumberOr("mean_us", 0.0)),
                  HumanDuration(v.NumberOr("p50_us", 0.0)),
                  HumanDuration(v.NumberOr("p90_us", 0.0)),
                  HumanDuration(v.NumberOr("p99_us", 0.0)),
                  HumanDuration(v.NumberOr("max_us", 0.0))});
  }
  std::printf("%s", table.Render().c_str());
}

int CmdStats(const Flags& flags, eval::RunManifest&) {
  const std::string socket = flags.String("socket");
  const int watch = static_cast<int>(flags.Uint("watch"));
  const bool raw = flags.Bool("json");

  while (true) {
    const std::string response =
        service::RequestOnce(socket, "{\"op\":\"stats\"}");
    if (raw) {
      std::printf("%s\n", response.c_str());
    } else {
      json::Value reply;
      std::string error;
      if (!json::Parse(response, reply, &error))
        throw std::runtime_error("stats: bad response: " + error);
      const json::Reader stats(reply, "stats: reply");
      if (!stats.BoolOr("ok", false))
        throw std::runtime_error("stats: server error: " + response);
      if (watch > 0) std::printf("\033[H\033[2J");
      PrintStats(stats);
    }
    std::fflush(stdout);
    if (watch == 0) break;
    std::this_thread::sleep_for(std::chrono::seconds(watch));
  }
  return 0;
}

int CmdSession(const Flags& flags, eval::RunManifest&) {
  service::ClientOptions options;
  options.socket_path = flags.String("socket");
  options.fail_on_error = flags.Bool("fail-on-error");
  const std::string script = flags.String("script");
  if (script == "-")
    return service::RunClient(options, std::cin, std::cout);
  std::ifstream in(script, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + script);
  return service::RunClient(options, in, std::cout);
}

using CommandFn = int (*)(const Flags&, eval::RunManifest&);

/// One command: its own flag rows, the shared blocks it takes, and the
/// line its `--help` prints.
struct Command {
  const char* name;  ///< one word, or two for "validate KIND"/"journal tail"
  const char* about;
  std::vector<FlagSpec> flags;
  CommandFn run;
  bool pipeline = false;  ///< takes eval::PipelineFlags() and a manifest
  bool sampler = false;   ///< takes the sampler-parameter block
  const char* positional = "";  ///< synopsis of the positional words
  size_t min_positional = 0;
  size_t max_positional = 0;
};

constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
constexpr uint64_t kMaxInt = std::numeric_limits<int>::max();
constexpr uint64_t kMaxInt64 = std::numeric_limits<int64_t>::max();
const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = [] {
    using enum FlagKind;
    const FlagSpec suite =
        Required({"suite", kString, "", "rodinia|casio|huggingface"});
    const FlagSpec workload = Required({"workload", kString, "", "workload"});
    const FlagSpec gpu = {"gpu", kString, "rtx2080", "rtx2080|h100|h200"};
    const FlagSpec in = Required({"in", kString, "", "SRTC trace file"});
    const FlagSpec out = Required({"out", kString, "", "file to write"});
    const FlagSpec method = {"method", kString, "stem", "sampler registry key"};
    const FlagSpec reps = {"reps", kUint, "10", "repetitions", kMaxU32};
    const FlagSpec epsilon = {"epsilon", kDouble, "", "relative error bound"};
    const FlagSpec confidence = {"confidence", kDouble, "", "its confidence"};
    const FlagSpec socket = Required({"socket", kString, "", "socket path"});
    const FlagSpec events = {"require-event", kList, "", "events required"};
    const FlagSpec cache = {"cache", kPath, eval::DefaultTraceCacheDir(),
                            "profiled-trace cache"};
    return std::vector<Command>{
        {"generate", "Generate an unprofiled kernel trace.",
         {suite, workload, out}, CmdGenerate, true},
        {"profile", "Profile a trace on a GPU model (--out may be --in).",
         {in, out, gpu, {"csv", kPath, "", "export the timeline as CSV"}},
         CmdProfile, true},
        {"info", "Print a trace's top kernels by time.",
         {in, {"top", kUint, "10", "kernels listed"}}, CmdInfo, true},
        {"sample", "Write a sampling plan as CSV (invocation, weight).",
         {in, out, method}, CmdSample, true, true},
        {"evaluate", "Print a sampler's error and speedup over --reps plans.",
         {in, method, reps}, CmdEvaluate, true, true},
        {"run", "Generate, profile, sample and evaluate one workload.",
         {suite, workload, gpu, method, reps}, CmdRun, true, true},
        {"stream", "Stream a workload through streaming ROOT, out of core.",
         {suite, workload, gpu,
          {"target-invocations", kUint, "0", "tile the trace out to N"},
          {"cluster", kBool, "true", "run streaming ROOT"}, epsilon,
          confidence},
         CmdStream, true},
        {"audit", "Check ROOT's error bounds against seeded plans' errors.",
         {suite, {"workload", kList, "", "workloads (all when absent)"}, gpu,
          method, {"trials", kUint, "10", "plans per workload", kMaxU32},
          epsilon, confidence, {"json", kPath, "", "write the report"},
          {"min-within", kDouble, "0", "exit 1 below this fraction"}},
         CmdAudit, true, true},
        {"dse", "Table 4: full vs sampled cycle simulation per variant.",
         {suite, Required({"workload", kList, "", "workloads"}), gpu,
          {"method", kList, "stem,random", "samplers"},
          {"variants", kList, "", "baseline,cache_x2,cache_half,sm_x2,sm_half"},
          {"csv", kPath, "", "write per-point results"}},
         CmdDse, true, true},
        {"serve", "Host the resident sampling service on a socket.",
         {socket, {"max-sessions", kUint, "64", "open sessions", kMaxU32},
          {"slow-ms", kDouble, "0", "journal slower requests (0 = off)"},
          cache, {"journal", kPath, "", "append the JSONL event journal"}},
         CmdServe},
        {"session", "Replay a request script against a server.",
         {socket, {"script", kString, "-", "JSON requests; - = stdin"},
          {"fail-on-error", kBool, "false", "exit 1 on any ok=false"}},
         CmdSession},
        {"stats", "Render a server's stats verb.",
         {socket, {"watch", kUint, "0", "refresh every N s", kMaxInt},
          {"json", kBool, "false", "print the raw response"}},
         CmdStats},
        {"journal tail", "Pretty-print an event journal.",
         {{"min-severity", kString, "", "debug|info|warn|error"},
          {"verb", kString, "", "keep one event name"},
          {"follow", kBool, "false", "poll for new lines (tail -f)"},
          {"poll-ms", kUint, "200", "--follow poll interval"}},
         CmdJournalTail, false, false, "FILE", 1, 1},
        {"cache", "Show, verify or evict (oldest first) the trace cache.",
         {cache, {"max-bytes", kUint, "0", "evict down to this size"}},
         CmdCache, false, false, "[stats|verify|evict]", 0, 1},
        {"compare", "Diff two manifests: exit 3 on drift, 2 on other configs.",
         {{"allow-config-diff", kBool, "false", "diff other configs too"}},
         CmdCompare, false, false, "A.json B.json", 2, 2},
        {"regress", "Gate the newest ledger entry or a journal: exit 3.",
         {{"ledger", kPath, "", "JSONL ledger (unless --journal)"},
          {"journal", kPath, "", "serve event journal"},
          {"window", kUint, "8", "baseline runs (0 = all)"},
          {"min-history", kUint, "2", "baseline runs a gate needs"},
          {"mad-factor", kDouble, "3", "C in median + C*MAD"},
          {"rel-slack", kDouble, "0.02", "relative perf slack"},
          {"accuracy-slack", kDouble, "1e-6", "error slack, points"},
          {"max-journal-errors", kUint, "0", "error events allowed"},
          {"max-journal-dropped", kUint, "", "dropped events allowed",
           kMaxInt64}},
         CmdRegress},
        {"validate manifest", "Check run manifests; exit 1 on a failure.",
         {{"require-stage", kList, "", "stages required"},
          {"require-counter", kList, "", "nonzero counters required"},
          {"stage-leq", kList, "", "STAGE=OTHER.json: no slower than OTHER"},
          {"require-completed", kBool, "false", "a completed run"},
          {"require-spill", kBool, "false", "a trace_spill block"},
          {"max-logical", kList, "", "KEY=BYTES logical mem bounds"}},
         CmdValidateManifest, false, false, "FILE...", 1, SIZE_MAX},
        {"validate trace", "Check Chrome trace files.",
         {events, {"min-events", kUint, "0", "event floor"}},
         CmdValidateTrace, false, false, "FILE...", 1, SIZE_MAX},
        {"validate journal", "Check event journals.", {events},
         CmdValidateJournal, false, false, "FILE...", 1, SIZE_MAX},
    };
  }();
  return commands;
}

/// The command's whole grammar: its own rows, then the shared blocks.
std::vector<FlagSpec> FlagTable(const Command& command) {
  std::vector<FlagSpec> table = command.flags;
  if (command.sampler)
    for (const FlagSpec& spec : SamplerFlags())
      if (FindFlag(command.flags, spec.name) == nullptr)
        table.push_back(spec);
  if (command.pipeline)
    table.insert(table.end(), eval::PipelineFlags().begin(),
                 eval::PipelineFlags().end());
  table.insert(table.end(), eval::EveryCommandFlags().begin(),
               eval::EveryCommandFlags().end());
  return table;
}

/// The command list: each name with its positional words, then its
/// one-line description.
std::string Usage() {
  std::string out =
      "usage: stemroot COMMAND [flags]   (stemroot COMMAND --help lists "
      "its flags)\n\ncommands:\n";
  for (const Command& command : Commands()) {
    std::string name = std::string("  ") + command.name + " " +
                       command.positional;
    name.resize(std::max<size_t>(name.size() + 2, 32), ' ');
    out += name + command.about + "\n";
  }
  return out;
}

/// The command named `two` words ("validate trace"), else `one`.
const Command* FindCommand(const std::string& one, const std::string& two) {
  for (const Command& command : Commands())
    if (command.name == two) return &command;
  for (const Command& command : Commands())
    if (command.name == one) return &command;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string word = argc > 1 ? argv[1] : "";
  if (word == "--help" || word == "-h") {
    std::printf("%s", Usage().c_str());
    return 0;
  }
  const std::string two = argc > 2 ? word + " " + argv[2] : "";
  const Command* command = FindCommand(word, two);
  if (command == nullptr) {
    if (argc > 1)
      std::fprintf(stderr, "unknown command '%s'\n",
                   (argc > 2 && argv[2][0] != '-' ? two : word).c_str());
    std::fprintf(stderr, "%s", Usage().c_str());
    return 2;
  }
  const int words = command->name == two ? 2 : 1;
  const auto start = std::chrono::steady_clock::now();

  // Manifest skeleton: stamped and written completed=false before any real
  // work, so even a crashed command leaves provenance evidence behind.
  eval::RunManifest manifest;
  manifest.tool = "stemroot";
  manifest.command = word;
  manifest.StampBuild();
  std::string manifest_path;
  std::string ledger_path;
  // The manifest's closing fields: wall time, telemetry and memory.
  const auto close_manifest = [&](bool completed) {
    manifest.completed = completed;
    manifest.wall_time_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    manifest.FillFromSnapshot(telemetry::Capture());
    FillMem(manifest);
  };

  try {
    // The whole command line is checked against the command's table
    // before any file is written.
    const std::vector<FlagSpec> table = FlagTable(*command);
    const Flags flags = Flags::Parse(argc - 1 - words, argv + 1 + words,
                                     table, command->max_positional);
    if (flags.Help()) {
      std::printf("usage: stemroot %s%s%s [flags]\n\n%s\n\nflags:\n%s",
                  command->name, *command->positional ? " " : "",
                  command->positional, command->about,
                  FlagHelp(table).c_str());
      return 0;
    }
    if (flags.Positional().size() < command->min_positional)
      throw FlagError(std::string("Flags: ") + command->name + " needs " +
                      command->positional);
    eval::CheckCommonFlags(flags);
    if (command->sampler) CheckSamplerKeys(flags, command->flags);

    eval::ApplyCommonFlags(flags);
    if (command->pipeline) {
      manifest_path = flags.Path("manifest");
      ledger_path = flags.Path("ledger");
      // A manifest or ledger line records telemetry, and with it logical
      // mem accounting (common/resource.h).
      if (!manifest_path.empty() || !ledger_path.empty())
        telemetry::SetEnabled(true);
      if (!flags.Path("cache").empty())
        eval::SetTraceCacheDir(flags.Path("cache"));
      manifest.config.threads = NumThreads();
      manifest.config.seed = flags.Uint("seed");
      manifest.config.scale = flags.Double("scale");
      if (!manifest_path.empty()) manifest.Save(manifest_path);
    }

    const int rc = command->run(flags, manifest);
    if (const std::string trace = flags.Path("trace"); !trace.empty()) {
      trace_events::WriteTrace(trace);
      const trace_events::Stats stats = trace_events::GetStats();
      if (stats.dropped > 0)
        std::fprintf(stderr,
                     "trace: %llu oldest events dropped; kept the newest "
                     "%zu per thread (otherData.dropped records the "
                     "count)\n",
                     static_cast<unsigned long long>(stats.dropped),
                     trace_events::RingCapacity());
    }

    if (!manifest_path.empty() || !ledger_path.empty()) {
      close_manifest(rc == 0);
      if (!manifest_path.empty()) {
        manifest.Save(manifest_path);
        std::printf("manifest: %s\n", manifest_path.c_str());
      }
      if (!ledger_path.empty() && manifest.completed) {
        eval::Ledger::Append(manifest, ledger_path);
        std::printf("ledger: appended to %s\n", ledger_path.c_str());
      }
    }
    return rc;
  } catch (const FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // Leave crash evidence: finalize the manifest as a failed run.
    if (!manifest_path.empty()) {
      try {
        manifest.error = e.what();
        close_manifest(false);
        manifest.Save(manifest_path);
      } catch (const std::exception&) {
        // The original error is the one worth reporting.
      }
    }
    return 1;
  }
}
