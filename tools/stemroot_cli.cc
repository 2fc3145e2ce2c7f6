/// \file
/// stemroot — command-line front end to the library, mirroring the
/// paper's Fig. 5 pipeline as composable steps over trace files:
///
///   stemroot generate --suite casio --workload bert_infer --out t.srtc
///   stemroot profile  --in t.srtc --gpu rtx2080 --out t.srtc
///   stemroot info     --in t.srtc
///   stemroot sample   --in t.srtc --method stem --epsilon 0.05 --out p.csv
///   stemroot evaluate --in t.srtc --method stem --reps 10
///   stemroot run      --suite casio --workload bert_infer --method stem
///   stemroot serve    --socket /tmp/stemroot.sock
///   stemroot session  --socket /tmp/stemroot.sock --script requests.jsonl
///   stemroot compare  A.json B.json
///   stemroot regress  --ledger bench_results/ledger.jsonl --window 8
///   stemroot cache    stats|verify|evict [--cache DIR] [--max-bytes N]
///   stemroot validate manifest a.json b.json --require-completed true
///
/// `serve` hosts the resident service::Service over an AF_UNIX socket
/// speaking the line-delimited JSON protocol (service/protocol.h);
/// `session` replays a request script against it. `run` itself routes
/// through service::Service::RunBatch, so the batch command and a served
/// session share one typed configuration path (service::SessionConfig).
///
/// Common flags are parsed once through eval::ParseCommonOptions into a
/// typed eval::CommonOptions (no per-command ad-hoc plumbing); suite and
/// GPU tokens resolve through eval::ResolveSuite / eval::ResolveGpu.
///
/// Stage wiring goes through eval::Pipeline (one master --seed per command;
/// per-stage seeds are derived from it — see src/eval/pipeline.h) and
/// samplers are built through core::SamplerRegistry, so the CLI, benches,
/// and tests share one code path. `--telemetry FILE.json|.csv` on any
/// command enables the telemetry subsystem and exports on exit.
///
/// Every pipeline command can emit a stemroot-manifest-v1 run manifest
/// (`--manifest FILE`, written as completed=false up front so crashes
/// leave evidence) and append it to the perf/accuracy ledger
/// (`--ledger FILE`, JSONL). `compare` diffs two manifests; `regress`
/// gates the newest ledger entry against its rolling baseline.
///
/// Pipeline commands memoize the generate->profile prefix in a
/// content-addressed on-disk cache (default bench_results/cache/;
/// `--cache DIR|none`; see src/eval/trace_cache.h for the key contract).
/// `stemroot cache` inspects and maintains it.
///
/// `stemroot validate KIND FILE...` checks the artifacts the other
/// commands write (manifest, telemetry, trace, metrics, journal); each
/// check lives beside the writer of its format, so the verb only wires
/// flags to those library calls.
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
#include <memory>
#include <optional>
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
#include "eval/stage_report.h"
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

int Usage() {
  std::fprintf(stderr, R"(usage: stemroot <command> [--flags]

commands:
  generate  --suite rodinia|casio|huggingface --workload NAME --out FILE
            [--seed N] [--scale X]
  profile   --in FILE --out FILE [--gpu rtx2080|h100|h200] [--seed N]
            [--csv timeline.csv]
  info      --in FILE [--top N]
  sample    --in FILE --out PLAN.csv [--method NAME] [--seed N]
  evaluate  --in FILE [--method NAME] [--reps N] [--seed N]
  run       --suite SUITE --workload NAME [--gpu GPU] [--method NAME]
            [--reps N] [--seed N] [--scale X]
  stream    --suite SUITE --workload NAME [--gpu GPU]
            [--target-invocations N] [--trace-chunk-invocations N]
            [--trace-spill DIR] [--cluster false] [--epsilon X]
            [--confidence X] [--seed N] [--scale X]
  serve     --socket PATH [--max-sessions N] [--cache DIR|none]
            [--metrics FILE|fd:N] [--metrics-interval SEC]
            [--journal FILE] [--slow-ms MS]
  session   --socket PATH [--script FILE|-] [--fail-on-error true]
  stats     --socket PATH [--watch SEC] [--json true]
  audit     --suite SUITE [--workload A,B,..] [--gpu GPU] [--method NAME]
            [--trials N] [--seed N] [--scale X] [--json FILE]
            [--min-within FRACTION]
  dse       --suite SUITE --workload A[,B,..] [--gpu GPU] [--method A,B,..]
            [--variants baseline,cache_x2,cache_half,sm_x2,sm_half]
            [--seed N] [--scale X] [--csv FILE]
  compare   A.json B.json [--allow-config-diff true]
  regress   --ledger FILE [--window K] [--min-history N] [--mad-factor C]
            [--rel-slack X] [--accuracy-slack PP] [--journal FILE]
            [--max-journal-errors N] [--max-journal-dropped N]
  journal   tail FILE [--min-severity debug|info|warn|error] [--verb EVENT]
            [--follow true] [--poll-ms N]
  cache     stats|verify|evict [--cache DIR] [--max-bytes N]
  validate  telemetry FILE... [--require-stage A,B,..]
            trace FILE... [--require-event A,B,..] [--min-events N]
            manifest FILE... [--require-stage A,..] [--require-counter A,..]
              [--require-completed true] [--stage-leq STAGE=OTHER.json,..]
              [--require-spill true] [--max-logical KEY=BYTES,..]
            manifest FILE [--scale-stage STAGE=FACTOR] [--set-error-pct X]
              [--set-mem KEY=BYTES,..] [--out FILE] [--append-to LEDGER]
            metrics FILE.prom... [--prev EARLIER.prom]
            journal FILE.jsonl... [--require-event A,B,..]

trace FILEs are chunked SRTC trace files (e.g. t.srtc); profile may
write its --out over its own --in.

methods come from the sampler registry (stem random pka sieve photon
tbpoint); sampler parameters (--epsilon, --probability, --confidence, ...)
are forwarded to the method's factory.

dse runs the Table 4 protocol on the cycle-level simulator: plans are
built from the baseline profile, then every (variant, workload) point --
full simulation plus one sampled simulation per method -- is evaluated
concurrently over the shared cached traces; results are byte-identical
at any --threads (DESIGN.md section 12).

serve hosts the resident sampling service on an AF_UNIX socket: clients
hold concurrent streaming sessions (open/feed/query/plan/eval/close as
line-delimited JSON; `shutdown` stops the server) and can stop feeding
the moment `query` reports converged=true -- see DESIGN.md section 13.
session connects to a server and replays --script (one JSON request per
line, '-' or omitted = stdin), echoing one response per line;
--fail-on-error true exits 1 if any response had ok=false. `run` routes
through the same service code path, so a fully-fed session's manifest
compares clean against the matching `stemroot run` manifest.

serve exposes live introspection (DESIGN.md section 14): --metrics
exports Prometheus text every --metrics-interval seconds (atomically to
a file, or rewriting fd:N); --journal appends a structured JSONL event
journal (session lifecycle, convergence, slow requests past --slow-ms,
connection errors); the `stats` and `health` protocol verbs report
per-verb latency quantiles and liveness. `stemroot stats` renders the
stats verb (--watch N refreshes every N seconds; --json prints the raw
response). regress --journal gates on that journal's error/drop counts.
`stemroot journal tail` pretty-prints a journal file (--min-severity
filters below the floor, --verb keeps one event name, --follow polls
for appended lines like tail -f).

resource observability (DESIGN.md section 15): pipeline commands with
--manifest/--ledger record a "mem" block -- physical peak RSS
(environmental, regress-gated against the rolling baseline) plus the
deterministic logical per-category peaks (trace, root, plan, sim, eval,
...) that `compare` gates byte-for-byte. serve samples RSS/CPU in the
background by default and exports stemroot_process_*/stemroot_mem_*
metrics; elsewhere the sampler is opt-in via --resource-sample-ms.

audit compares every ROOT cluster's predicted error bound (Eq. 2 under
the KKT allocation) against the realized error of seeded sampling plans;
--min-within makes the exit status gate on the within-budget fraction.

compare diffs two run manifests: deterministic fields (config, accuracy,
samples, counters) gate the exit status (3 on drift, 2 on config
mismatch); wall times are reported but never gated. regress checks the
newest ledger entry against up to --window prior same-config runs with
noise-aware thresholds (median + max(C*MAD, slack)); exit 3 on any
perf/accuracy regression, so CI can gate on it.

cache manages the content-addressed profiled-trace cache: stats prints
entry count and bytes, verify checks every entry's header and checksum
(exit 1 if any entry is defective), evict removes entries oldest-first
until the cache fits --max-bytes (default 0: remove everything).

validate checks exported artifacts and exits 1 when any check fails:
telemetry exports (.csv selects the CSV schema) and their stage spans;
Chrome traces (balanced, monotone, required events, an event floor);
run manifests (schema, every service.* counter registered, plus the
requirement flags; --stage-leq holds a stage to no more wall time than
in OTHER.json, --max-logical bounds a logical mem category); Prometheus
expositions (format, and with --prev no counter or high-water gauge
falling or vanishing since the earlier scrape); and event journals
(reserved keys, non-decreasing ts_us, gap-free seq; a torn final line
is tolerated). The manifest forging flags rewrite one validated
manifest for CI drills: --scale-stage multiplies a stage's time (and
the wall time) by FACTOR, --set-error-pct overwrites the realized
error, --set-mem sets peak_rss or a logical category; the result goes
to --out and/or is appended to the --append-to ledger.

pipeline commands (generate .. audit) also accept:
  --cache DIR|none   directory of the profiled-trace cache consulted by
                     `run` (default bench_results/cache). a warm cache
                     skips the generate+profile stages byte-identically;
                     "none" disables caching for this invocation.
  --manifest FILE    write a stemroot-manifest-v1 run manifest (resolved
                     config, build stamp, per-stage wall time, telemetry
                     counters, headline metrics). written completed=false
                     up front, finalized on success.
  --ledger FILE      append the manifest to this JSONL ledger on success.
  --trace-chunk-invocations N
                     chunk capacity of the out-of-core trace view (0 = in-
                     memory, the default). results are byte-identical at
                     any chunk size; only the storage granularity moves.
  --trace-spill DIR  spill the profiled trace to DIR as a chunked "SRTC"
                     file (per-chunk XXH64 digests; a corrupt or stale
                     spill is rebuilt, never trusted). the manifest gains
                     a trace_spill block recording the chunk layout.

stream runs the out-of-core pass end-to-end: generate+profile a base
workload, then stream it chunk-by-chunk through online duration stats
and streaming ROOT clustering in bounded memory (logical trace peak =
header + 2 chunk budgets). --target-invocations N tiles the profiled
base out to N logical invocations without materializing them, which is
how the 10^8..10^9-invocation scale suites run on a laptop-sized host.

every command accepts:
  --threads N        0 = auto; or set STEMROOT_THREADS. thread count never
                     changes results -- see DESIGN.md.
  --telemetry FILE   collect pipeline telemetry and write it on exit
                     (.csv extension selects CSV; anything else JSON).
  --trace FILE       record Chrome trace events (pipeline stages, parallel
                     chunks, ROOT recursion, k-means iterations, KKT
                     rounds) and write chrome://tracing / Perfetto JSON.
  --log-level L      silent|warn|inform|debug (default warn).
  --seed N           master seed; every stage derives its own stream.
  --resource-sample-ms N
                     sample RSS/CPU every N ms in the background (0 = off,
                     the default; serve defaults on). physical peaks land
                     in the manifest mem block and the metrics export.
)");
  return 2;
}

/// Forward the sampler-parameter flags that are present to the registry
/// factory. Reading through GetString marks the flag consumed for
/// CheckAllRead; the factory's typed getters validate the values.
core::SamplerParams SamplerParamsFromFlags(const Flags& flags) {
  static const char* const kKeys[] = {
      // stem
      "epsilon", "confidence", "min_samples", "branch_k",
      // random
      "probability",
      // pka
      "max_k", "elbow_threshold", "random_representative",
      // sieve
      "stable_cov", "variable_cov", "use_kde", "kde_bins",
      // photon
      "similarity_threshold", "warp_tolerance",
      // tbpoint
      "merge_threshold", "max_clusters", "agglomeration_cap",
  };
  core::SamplerParams params;
  for (const char* key : kKeys)
    if (flags.Has(key)) params.Set(key, flags.GetString(key, ""));
  return params;
}

std::unique_ptr<core::Sampler> MakeSampler(const Flags& flags) {
  baselines::EnsureBuiltinSamplers();
  const std::string method = flags.GetString("method", "stem");
  return core::SamplerRegistry::Global().Create(method,
                                                SamplerParamsFromFlags(flags));
}

/// Record the sampler-side configuration in the manifest: the registry
/// method name plus the epsilon/confidence the error model resolves (flag
/// values when given, StemConfig defaults for the stem method, 0 for
/// baselines that have no epsilon contract).
void FillSamplerConfig(eval::RunManifest& manifest, const Flags& flags) {
  manifest.config.method = flags.GetString("method", "stem");
  const core::StemConfig defaults;
  const bool stem = manifest.config.method == "stem";
  manifest.config.epsilon =
      flags.GetDouble("epsilon", stem ? defaults.epsilon : 0.0);
  manifest.config.confidence =
      flags.GetDouble("confidence", stem ? defaults.confidence : 0.0);
}

/// Stamp the manifest's mem block from the resource subsystem: the
/// physical peak (always available via VmHWM/ru_maxrss, sampler or not)
/// plus the deterministic logical per-category peaks. No-op when
/// accounting never ran -- the block stays absent, and compare treats
/// that as environmental, not drift.
void FillMem(eval::RunManifest& manifest) {
  if (!resource::AccountingEnabled()) return;
  manifest.mem.present = true;
  manifest.mem.peak_rss_bytes = resource::PeakRssBytes();
  manifest.mem.samples = resource::GetStats().samples;
  manifest.mem.logical = resource::LogicalPeaks();
}

void FillMetrics(eval::RunManifest& manifest,
                 const eval::EvalResult& result) {
  manifest.metrics.present = true;
  manifest.metrics.error_pct = result.error_pct;
  manifest.metrics.theoretical_error_pct = result.theoretical_error_pct;
  manifest.metrics.speedup = result.speedup;
  manifest.metrics.num_samples = result.num_samples;
  manifest.metrics.num_clusters = result.num_clusters;
}

int CmdGenerate(const Flags& flags, const eval::CommonOptions& common,
                eval::RunManifest& manifest) {
  const workloads::SuiteId suite = eval::ResolveSuite(flags.Require("suite"));
  const std::string workload = flags.Require("workload");
  const std::string out = flags.Require("out");
  flags.CheckAllRead();

  const eval::Pipeline pipeline = eval::Pipeline::Generate(
      {.suite = suite,
       .workload = workload,
       .options = common.ToPipelineOptions()});
  pipeline.FillManifest(manifest);
  SpillTraceChunked(pipeline.Trace(), out);
  std::printf("wrote %s: %zu invocations, %zu kernel types (unprofiled)\n",
              out.c_str(), pipeline.Trace().NumInvocations(),
              pipeline.Trace().NumKernelTypes());
  return 0;
}

int CmdProfile(const Flags& flags, const eval::CommonOptions& common,
               eval::RunManifest& manifest) {
  const std::string in = flags.Require("in");
  const std::string out = flags.Require("out");
  const hw::GpuSpec spec = eval::ResolveGpu(flags.GetString("gpu", "rtx2080"));
  const std::string csv = flags.GetString("csv", "");
  flags.CheckAllRead();

  // The temporary FileChunkSource closes its reader before the spill
  // below truncates `out`, which may be the same path as `in`.
  eval::Pipeline pipeline = eval::Pipeline::FromTrace(
      AssembleTrace(FileChunkSource(in)), common.ToPipelineOptions());
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
  const std::string in = flags.Require("in");
  const int64_t top = flags.GetInt("top", 10);
  flags.CheckAllRead();

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
  int64_t shown = 0;
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

int CmdSample(const Flags& flags, const eval::CommonOptions& common,
              eval::RunManifest& manifest) {
  const std::string in = flags.Require("in");
  const std::string out = flags.Require("out");
  const std::unique_ptr<core::Sampler> sampler = MakeSampler(flags);
  FillSamplerConfig(manifest, flags);
  flags.CheckAllRead();

  const eval::Pipeline pipeline = eval::Pipeline::FromTrace(
      AssembleTrace(FileChunkSource(in)), common.ToPipelineOptions());
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

int CmdEvaluate(const Flags& flags, const eval::CommonOptions& common,
                eval::RunManifest& manifest) {
  const std::string in = flags.Require("in");
  const uint32_t reps = static_cast<uint32_t>(flags.GetInt("reps", 10));
  const std::unique_ptr<core::Sampler> sampler = MakeSampler(flags);
  FillSamplerConfig(manifest, flags);
  manifest.config.reps = reps;
  flags.CheckAllRead();

  const eval::Pipeline pipeline = eval::Pipeline::FromTrace(
      AssembleTrace(FileChunkSource(in)), common.ToPipelineOptions());
  pipeline.FillManifest(manifest);
  const eval::EvalResult result = pipeline.Evaluate(*sampler, reps);
  FillMetrics(manifest, result);
  PrintResult(result);
  return 0;
}

int CmdRun(const Flags& flags, const eval::CommonOptions& common,
           eval::RunManifest& manifest) {
  // `run` is the batch entry of the resident service: one typed
  // SessionConfig drives both, so a served session's manifest compares
  // clean against this command's (see service/service.h).
  service::SessionConfig config;
  config.method = flags.GetString("method", "stem");
  config.params = SamplerParamsFromFlags(flags);
  config.seed = common.seed;
  config.scale = common.scale;
  config.reps = static_cast<uint32_t>(flags.GetInt("reps", 10));
  config.suite = flags.Require("suite");
  config.workload = flags.Require("workload");
  config.gpu = flags.GetString("gpu", "rtx2080");
  config.trace_chunk_invocations = common.trace_chunk_invocations;
  config.trace_spill_dir = common.trace_spill_dir;
  FillSamplerConfig(manifest, flags);
  config.epsilon = manifest.config.epsilon;
  config.confidence = manifest.config.confidence;
  flags.CheckAllRead();

  const eval::EvalResult result = service::Service::RunBatch(config,
                                                             &manifest);
  PrintResult(result);
  if (telemetry::Enabled()) {
    const eval::StageReport report =
        eval::StageReport::FromSnapshot(telemetry::Capture());
    std::printf("%s", report.ToText().c_str());
  }
  return 0;
}

int CmdStream(const Flags& flags, const eval::CommonOptions& common,
              eval::RunManifest& manifest) {
  // Out-of-core streaming pass (DESIGN.md section 16): generate+profile a
  // base workload (trace-cache aware), optionally spill it chunked, then
  // stream a chunk iterator -- replicated out to --target-invocations
  // when asked -- through online duration stats and streaming ROOT. The
  // resident trace footprint is header + 2 chunk budgets regardless of
  // the logical timeline length, which the manifest mem block records.
  const workloads::SuiteId suite = eval::ResolveSuite(flags.Require("suite"));
  const std::string workload = flags.Require("workload");
  const hw::GpuSpec spec = eval::ResolveGpu(flags.GetString("gpu", "rtx2080"));
  const uint64_t target =
      static_cast<uint64_t>(flags.GetInt("target-invocations", 0));
  const bool cluster = flags.GetBool("cluster", true);

  eval::StreamOptions stream_options;
  stream_options.seed = common.seed;
  stream_options.cluster = cluster;
  stream_options.clustering.root.stem.epsilon = flags.GetDouble(
      "epsilon", stream_options.clustering.root.stem.epsilon);
  stream_options.clustering.root.stem.confidence = flags.GetDouble(
      "confidence", stream_options.clustering.root.stem.confidence);
  manifest.config.epsilon = stream_options.clustering.root.stem.epsilon;
  manifest.config.confidence = stream_options.clustering.root.stem.confidence;
  flags.CheckAllRead();

  const eval::Pipeline pipeline = eval::Pipeline::GenerateProfiled(
      {.suite = suite,
       .workload = workload,
       .options = common.ToPipelineOptions()},
      spec);
  pipeline.FillManifest(manifest);

  const uint64_t cap = common.trace_chunk_invocations > 0
                           ? common.trace_chunk_invocations
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

int CmdAudit(const Flags& flags, const eval::CommonOptions& common,
             eval::RunManifest& manifest) {
  const workloads::SuiteId suite = eval::ResolveSuite(flags.Require("suite"));
  const hw::GpuSpec spec = eval::ResolveGpu(flags.GetString("gpu", "rtx2080"));
  const std::unique_ptr<core::Sampler> sampler = MakeSampler(flags);

  eval::AuditOptions options;
  options.trials = static_cast<uint32_t>(flags.GetInt("trials", 10));
  options.seed = common.seed;
  options.size_scale = common.scale;
  // The audit's reference budget uses the same epsilon/confidence flags
  // the sampler factory consumes, so both sides see one configuration.
  options.root.stem.epsilon =
      flags.GetDouble("epsilon", options.root.stem.epsilon);
  options.root.stem.confidence =
      flags.GetDouble("confidence", options.root.stem.confidence);
  if (flags.Has("workload"))
    options.only_workloads = Split(flags.GetString("workload", ""), ',');
  const std::string json_path = flags.GetString("json", "");
  const double min_within = flags.GetDouble("min-within", 0.0);
  FillSamplerConfig(manifest, flags);
  manifest.config.suite = flags.GetString("suite", "");
  manifest.config.gpu = spec.name;
  manifest.config.seed = options.seed;
  manifest.config.scale = options.size_scale;
  manifest.config.reps = options.trials;
  manifest.config.epsilon = options.root.stem.epsilon;
  manifest.config.confidence = options.root.stem.confidence;
  flags.CheckAllRead();

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
  std::vector<eval::DseVariant> all = eval::StandardDseVariants(base);
  if (!flags.Has("variants")) return all;
  static const struct {
    const char* token;
    size_t index;
  } kTokens[] = {{"baseline", 0},
                 {"cache_x2", 1},
                 {"cache_half", 2},
                 {"sm_x2", 3},
                 {"sm_half", 4}};
  std::vector<eval::DseVariant> out;
  for (const std::string& token :
       Split(flags.GetString("variants", ""), ',')) {
    bool found = false;
    for (const auto& entry : kTokens) {
      if (token == entry.token) {
        out.push_back(all[entry.index]);
        found = true;
        break;
      }
    }
    if (!found)
      throw std::invalid_argument(
          "unknown variant '" + token +
          "' (available: baseline, cache_x2, cache_half, sm_x2, sm_half)");
  }
  return out;
}

int CmdDse(const Flags& flags, const eval::CommonOptions& common,
           eval::RunManifest& manifest) {
  const workloads::SuiteId suite = eval::ResolveSuite(flags.Require("suite"));
  const std::vector<std::string> workload_names =
      Split(flags.Require("workload"), ',');
  const hw::GpuSpec spec = eval::ResolveGpu(flags.GetString("gpu", "rtx2080"));
  const std::vector<std::string> methods =
      Split(flags.GetString("method", "stem,random"), ',');
  const eval::Pipeline::Options options = common.ToPipelineOptions();

  eval::DseSweepOptions sweep_options;
  sweep_options.seed = options.seed;
  const std::vector<eval::DseVariant> variants = ParseVariants(flags, spec);
  const std::string csv_path = flags.GetString("csv", "");

  std::string joined_methods;
  for (const std::string& m : methods) {
    if (!joined_methods.empty()) joined_methods += '+';
    joined_methods += m;
  }
  manifest.config.suite = workloads::ToName(suite);
  manifest.config.workload = flags.GetString("workload", "");
  manifest.config.gpu = spec.name;
  manifest.config.method = joined_methods;

  baselines::EnsureBuiltinSamplers();
  // One flag scan for every method: the params are method-agnostic, each
  // factory reads the keys it knows.
  const core::SamplerParams sampler_params = SamplerParamsFromFlags(flags);
  std::vector<std::unique_ptr<core::Sampler>> samplers;
  for (const std::string& method : methods)
    samplers.push_back(
        core::SamplerRegistry::Global().Create(method, sampler_params));
  flags.CheckAllRead();

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

int CmdCache(const Flags& flags) {
  const std::vector<std::string>& pos = flags.Positional();
  const std::string action = pos.empty() ? "stats" : pos[0];
  const std::string dir =
      flags.GetString("cache", eval::DefaultTraceCacheDir());
  const uint64_t max_bytes =
      static_cast<uint64_t>(flags.GetInt("max-bytes", 0));
  flags.CheckAllRead();
  if (dir == "none" || dir.empty())
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

int CmdCompare(const Flags& flags) {
  const std::vector<std::string>& paths = flags.Positional();
  if (paths.size() != 2)
    throw std::invalid_argument(
        "compare needs exactly two manifest files: stemroot compare "
        "A.json B.json");
  eval::CompareOptions options;
  options.allow_config_diff = flags.GetBool("allow-config-diff", false);
  flags.CheckAllRead();

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

int CmdRegress(const Flags& flags) {
  const std::string journal_path = flags.GetString("journal", "");
  const std::string ledger_path =
      journal_path.empty() ? flags.Require("ledger")
                           : flags.GetString("ledger", "");
  eval::RegressOptions options;
  options.window = static_cast<size_t>(flags.GetInt("window", 8));
  options.min_history =
      static_cast<size_t>(flags.GetInt("min-history", 2));
  options.mad_factor = flags.GetDouble("mad-factor", 3.0);
  options.rel_slack = flags.GetDouble("rel-slack", 0.02);
  options.accuracy_slack_pct = flags.GetDouble("accuracy-slack", 1e-6);
  options.max_journal_errors = static_cast<uint64_t>(
      flags.GetInt("max-journal-errors", 0));
  options.max_journal_dropped = flags.GetInt("max-journal-dropped", -1);
  flags.CheckAllRead();

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

/// A comma-list flag (`--require-stage a,b`); empty when absent.
std::vector<std::string> ListFlag(const Flags& flags, const std::string& key) {
  const std::string value = flags.GetString(key, "");
  return value.empty() ? std::vector<std::string>{} : Split(value, ',');
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
  for (const std::string& item : ListFlag(flags, flag)) {
    const auto [key, text] = KeyValue(flag, item);
    const std::optional<int64_t> bytes = ParseInt(text);
    if (!bytes || *bytes < 0)
      throw std::invalid_argument("--" + flag + " wants KEY=BYTES with "
                                  "BYTES >= 0, got '" + item + "'");
    out.emplace_back(key, static_cast<uint64_t>(*bytes));
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
/// the requirement flags for every file; then the forging flags rewrite
/// the one validated manifest (CI drills forge faults `regress` must
/// catch, without shell JSON editing).
int ValidateManifests(const Flags& flags,
                      const std::vector<std::string>& paths) {
  const std::vector<std::string> stages = ListFlag(flags, "require-stage");
  const std::vector<std::string> counters =
      ListFlag(flags, "require-counter");
  std::vector<std::pair<std::string, std::string>> stage_leq;
  for (const std::string& item : ListFlag(flags, "stage-leq"))
    stage_leq.push_back(KeyValue("stage-leq", item));
  const bool require_completed = flags.GetBool("require-completed", false);
  const bool require_spill = flags.GetBool("require-spill", false);
  const auto max_logical = ByteSpecs(flags, "max-logical");
  std::string scale_stage;
  double scale_factor = 1.0;
  if (flags.Has("scale-stage")) {
    const auto [stage, factor] =
        KeyValue("scale-stage", flags.GetString("scale-stage", ""));
    const std::optional<double> parsed = ParseDouble(factor);
    if (!parsed || !(*parsed > 0.0))
      throw std::invalid_argument("--scale-stage wants a FACTOR > 0, got '" +
                                  factor + "'");
    scale_stage = stage;
    scale_factor = *parsed;
  }
  const bool set_error = flags.Has("set-error-pct");
  const double error_pct = flags.GetDouble("set-error-pct", 0.0);
  const auto set_mem = ByteSpecs(flags, "set-mem");
  const std::string out_path = flags.GetString("out", "");
  const std::string append_to = flags.GetString("append-to", "");
  flags.CheckAllRead();
  const bool forging = !scale_stage.empty() || set_error ||
                       !set_mem.empty() || !out_path.empty() ||
                       !append_to.empty();
  if (forging && paths.size() != 1)
    throw std::invalid_argument(
        "validate: the manifest forging flags take exactly one file");

  int rc = 0;
  for (const std::string& path : paths) {
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
    if (!forging) continue;

    if (!scale_stage.empty()) {
      bool found = false;
      for (auto& stage : manifest.stages) {
        if (stage.name != scale_stage) continue;
        stage.total_us *= scale_factor;
        found = true;
      }
      if (!found)
        throw std::runtime_error("validate: " + path + ": no stage \"" +
                                 scale_stage + "\" to scale");
      // Keep the manifest self-consistent: the total moves with its
      // slowest stage.
      manifest.wall_time_seconds *= scale_factor;
    }
    if (set_error) {
      manifest.metrics.present = true;
      manifest.metrics.error_pct = error_pct;
    }
    for (const auto& [key, bytes] : set_mem) {
      manifest.mem.present = true;
      if (key == "peak_rss")
        manifest.mem.peak_rss_bytes = bytes;
      else
        manifest.mem.logical[key] = bytes;
    }
    if (!out_path.empty()) {
      manifest.Save(out_path);
      std::printf("validate: wrote %s\n", out_path.c_str());
    }
    if (!append_to.empty()) {
      eval::Ledger::Append(manifest, append_to);
      std::printf("validate: appended to %s\n", append_to.c_str());
    }
  }
  return rc;
}

int CmdValidate(const Flags& flags) {
  const std::vector<std::string>& pos = flags.Positional();
  if (pos.size() < 2)
    throw std::invalid_argument(
        "validate needs a kind and files: stemroot validate "
        "manifest|telemetry|trace|metrics|journal FILE...");
  const std::string& kind = pos[0];
  const std::vector<std::string> paths(pos.begin() + 1, pos.end());
  if (kind == "manifest") return ValidateManifests(flags, paths);

  // The other kinds check each file's text on its own.
  std::function<bool(const std::string& path, const std::string& text,
                     std::string* error)>
      check;
  if (kind == "telemetry") {
    const std::vector<std::string> stages = ListFlag(flags, "require-stage");
    check = [stages](const std::string& path, const std::string& text,
                     std::string* error) {
      std::vector<std::string> spans;
      const bool ok = path.ends_with(".csv")
                          ? eval::ValidateTelemetryCsv(text, error, &spans)
                          : eval::ValidateTelemetryJson(text, error, &spans);
      return ok && RequireAll(stages, spans, "stage span", error);
    };
  } else if (kind == "trace") {
    const std::vector<std::string> events = ListFlag(flags, "require-event");
    const int64_t min_events = flags.GetInt("min-events", 0);
    check = [events, min_events](const std::string&, const std::string& text,
                                 std::string* error) {
      std::vector<std::string> names;
      trace_events::TraceInfo info;
      if (!trace_events::ValidateTraceJson(text, error, &names, &info) ||
          !RequireAll(events, names, "event", error))
        return false;
      if (static_cast<int64_t>(info.events) >= min_events) return true;
      *error = Format("%zu events, below --min-events %lld", info.events,
                      static_cast<long long>(min_events));
      return false;
    };
  } else if (kind == "metrics") {
    const std::string prev_path = flags.GetString("prev", "");
    check = [prev_path](const std::string&, const std::string& text,
                        std::string* error) {
      service::Exposition later, earlier;
      if (!service::ValidateExposition(text, error, &later)) return false;
      if (prev_path.empty()) return true;
      if (!service::ValidateExposition(ReadText(prev_path), error,
                                       &earlier)) {
        *error = prev_path + ": " + *error;
        return false;
      }
      return service::CheckMonotonic(earlier, later, error);
    };
  } else if (kind == "journal") {
    const std::vector<std::string> events = ListFlag(flags, "require-event");
    check = [events](const std::string&, const std::string& text,
                     std::string* error) {
      return journal::ValidateJournal(text, events, error);
    };
  } else {
    throw std::invalid_argument(
        "validate: unknown kind '" + kind +
        "' (manifest, telemetry, trace, metrics, journal)");
  }
  flags.CheckAllRead();

  int rc = 0;
  for (const std::string& path : paths) {
    std::string error;
    if (check(path, ReadText(path), &error)) {
      std::printf("validate: %s ok\n", path.c_str());
    } else {
      std::fprintf(stderr, "validate: %s: %s\n", path.c_str(),
                   error.c_str());
      rc = 1;
    }
  }
  return rc;
}

int CmdJournal(const Flags& flags) {
  const std::vector<std::string>& pos = flags.Positional();
  if (pos.size() != 2 || pos[0] != "tail")
    throw std::invalid_argument(
        "journal needs an action and a file: stemroot journal tail "
        "FILE.jsonl");
  eval::JournalTailOptions options;
  options.min_severity = flags.GetString("min-severity", "");
  options.event = flags.GetString("verb", "");
  options.follow = flags.GetBool("follow", false);
  options.poll_ms =
      static_cast<uint64_t>(flags.GetInt("poll-ms", 200));
  flags.CheckAllRead();
  if (!options.min_severity.empty() &&
      eval::SeverityRank(options.min_severity) < 0)
    throw std::invalid_argument(
        "journal: unknown --min-severity '" + options.min_severity +
        "' (available: debug, info, warn, error)");

  const eval::JournalTailResult result =
      eval::TailJournal(pos[1], options, std::cout);
  std::fprintf(stderr,
               "journal: %llu printed, %llu filtered, %llu unparseable\n",
               static_cast<unsigned long long>(result.printed),
               static_cast<unsigned long long>(result.filtered),
               static_cast<unsigned long long>(result.unparseable));
  return 0;
}

int CmdServe(const Flags& flags) {
  service::ServerOptions options;
  options.socket_path = flags.Require("socket");
  options.service.max_sessions =
      static_cast<uint32_t>(flags.GetInt("max-sessions", 64));
  // Session manifests need counter/stage telemetry; the trace cache makes
  // repeat OpenSession(workload) cheap, exactly like repeat `run`s.
  options.service.enable_telemetry = true;
  // A resident server is the introspection use case: per-verb latency
  // histograms on (the batch commands leave them off).
  options.service.enable_metrics = true;
  options.service.slow_request_us =
      flags.GetDouble("slow-ms", 0.0) * 1000.0;
  options.service.cache_dir =
      flags.GetString("cache", eval::DefaultTraceCacheDir());
  options.metrics_path = flags.GetString("metrics", "");
  options.metrics_interval_seconds =
      flags.GetDouble("metrics-interval", 2.0);
  options.journal_path = flags.GetString("journal", "");
  // Serve defaults the sampler ON (a resident process is where memory
  // pressure accrues invisibly); an explicit --resource-sample-ms 0
  // turns it off. ParseCommonOptions already consumed the flag, so this
  // re-read just resolves serve's different default.
  options.resource_sample_ms =
      static_cast<uint64_t>(flags.GetInt("resource-sample-ms", 250));
  flags.CheckAllRead();
  return service::RunServer(options);
}

/// Render one stats response (already parsed) as the human view: a
/// header line plus the per-verb latency table.
void PrintStats(const json::Value& stats) {
  const auto num = [&stats](std::string_view key) {
    const json::Value* v = stats.Find(key);
    return v != nullptr && v->IsNumber() ? v->number : 0.0;
  };
  std::printf("uptime %.1fs  sessions %llu/%llu open (%llu opened, %llu "
              "closed)  requests %llu (%llu errors)\n",
              num("uptime_seconds"),
              static_cast<unsigned long long>(num("open_sessions")),
              static_cast<unsigned long long>(num("max_sessions")),
              static_cast<unsigned long long>(num("sessions_opened")),
              static_cast<unsigned long long>(num("sessions_closed")),
              static_cast<unsigned long long>(num("requests")),
              static_cast<unsigned long long>(num("errors")));
  std::printf("fed invocations %llu, early stops %llu\n",
              static_cast<unsigned long long>(num("feed_invocations")),
              static_cast<unsigned long long>(num("early_stops")));
  if (const json::Value* j = stats.Find("journal"); j && j->IsObject()) {
    const json::Value* emitted = j->Find("emitted");
    const json::Value* dropped = j->Find("dropped");
    const json::Value* errors = j->Find("errors");
    std::printf("journal: %llu emitted, %llu dropped, %llu errors\n",
                static_cast<unsigned long long>(
                    emitted && emitted->IsNumber() ? emitted->number : 0.0),
                static_cast<unsigned long long>(
                    dropped && dropped->IsNumber() ? dropped->number : 0.0),
                static_cast<unsigned long long>(
                    errors && errors->IsNumber() ? errors->number : 0.0));
  }
  if (const json::Value* m = stats.Find("mem"); m && m->IsObject()) {
    const auto field = [&m](std::string_view key) {
      const json::Value* f = m->Find(key);
      return f != nullptr && f->IsNumber() ? f->number : 0.0;
    };
    std::printf("mem: rss %s, high water %s (%llu samples), cpu "
                "%.1fs user + %.1fs system\n",
                HumanCount(field("rss_bytes")).c_str(),
                HumanCount(field("hwm_bytes")).c_str(),
                static_cast<unsigned long long>(field("samples")),
                field("cpu_user_seconds"), field("cpu_system_seconds"));
    if (const json::Value* logical = m->Find("logical");
        logical && logical->IsObject() && !logical->object->empty()) {
      std::string line = "mem logical peaks:";
      for (const auto& [category, bytes] : *logical->object)
        if (bytes.IsNumber())
          line += Format(" %s=%s", category.c_str(),
                         HumanCount(bytes.number).c_str());
      std::printf("%s\n", line.c_str());
    }
  }
  const json::Value* verbs = stats.Find("verbs");
  if (verbs == nullptr || !verbs->IsObject()) return;
  TextTable table({"Verb", "Requests", "Errors", "Mean", "p50", "p90",
                   "p99", "Max"});
  for (const auto& [verb, v] : *verbs->object) {
    if (!v.IsObject()) continue;
    const auto field = [&v](std::string_view key) {
      const json::Value* f = v.Find(key);
      return f != nullptr && f->IsNumber() ? f->number : 0.0;
    };
    table.AddRow({verb,
                  Format("%llu", static_cast<unsigned long long>(
                                     field("requests"))),
                  Format("%llu", static_cast<unsigned long long>(
                                     field("errors"))),
                  HumanDuration(field("mean_us")),
                  HumanDuration(field("p50_us")),
                  HumanDuration(field("p90_us")),
                  HumanDuration(field("p99_us")),
                  HumanDuration(field("max_us"))});
  }
  std::printf("%s", table.Render().c_str());
}

int CmdStats(const Flags& flags) {
  const std::string socket = flags.Require("socket");
  const int watch = flags.GetInt("watch", 0);
  const bool raw = flags.GetBool("json", false);
  flags.CheckAllRead();
  if (watch < 0) throw std::invalid_argument("stats: --watch must be >= 0");

  while (true) {
    const std::string response =
        service::RequestOnce(socket, "{\"op\":\"stats\"}");
    if (raw) {
      std::printf("%s\n", response.c_str());
    } else {
      json::Value stats;
      std::string error;
      if (!json::Parse(response, stats, &error) || !stats.IsObject())
        throw std::runtime_error("stats: bad response: " + error);
      if (const json::Value* ok = stats.Find("ok");
          ok == nullptr || ok->number == 0.0)
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

int CmdSession(const Flags& flags) {
  service::ClientOptions options;
  options.socket_path = flags.Require("socket");
  options.fail_on_error = flags.GetBool("fail-on-error", false);
  const std::string script = flags.GetString("script", "-");
  flags.CheckAllRead();
  if (script == "-")
    return service::RunClient(options, std::cin, std::cout);
  std::ifstream in(script, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + script);
  return service::RunClient(options, in, std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const auto start = std::chrono::steady_clock::now();
  const std::string command = argv[1];
  const bool pipeline_command =
      command == "generate" || command == "profile" || command == "info" ||
      command == "sample" || command == "evaluate" || command == "run" ||
      command == "stream" || command == "audit" || command == "dse";

  // Manifest skeleton: stamped and written completed=false before any real
  // work, so even a crashed command leaves provenance evidence behind.
  eval::RunManifest manifest;
  manifest.tool = "stemroot";
  manifest.command = command;
  manifest.StampBuild();
  std::string manifest_path;
  std::string ledger_path;

  try {
    const Flags flags = Flags::Parse(argc - 2, argv + 2);
    // One typed parse for the flags every command shares; Apply flips the
    // process-global switches (threads, telemetry, trace events, log
    // level, trace cache) in one place.
    const eval::CommonOptions common =
        eval::ParseCommonOptions(flags, pipeline_command);
    eval::ApplyCommonOptions(common);
    if (pipeline_command) {
      manifest_path = common.manifest_path;
      ledger_path = common.ledger_path;
      manifest.config.threads = NumThreads();
      manifest.config.seed = common.seed;
      manifest.config.scale = common.scale;
      if (!manifest_path.empty()) manifest.Save(manifest_path);
    }

    int rc = -1;
    if (command == "generate") rc = CmdGenerate(flags, common, manifest);
    else if (command == "profile") rc = CmdProfile(flags, common, manifest);
    else if (command == "info") rc = CmdInfo(flags, manifest);
    else if (command == "sample") rc = CmdSample(flags, common, manifest);
    else if (command == "evaluate") rc = CmdEvaluate(flags, common, manifest);
    else if (command == "run") rc = CmdRun(flags, common, manifest);
    else if (command == "stream") rc = CmdStream(flags, common, manifest);
    else if (command == "audit") rc = CmdAudit(flags, common, manifest);
    else if (command == "dse") rc = CmdDse(flags, common, manifest);
    else if (command == "serve") rc = CmdServe(flags);
    else if (command == "session") rc = CmdSession(flags);
    else if (command == "stats") rc = CmdStats(flags);
    else if (command == "journal") rc = CmdJournal(flags);
    else if (command == "cache") rc = CmdCache(flags);
    else if (command == "compare") rc = CmdCompare(flags);
    else if (command == "regress") rc = CmdRegress(flags);
    else if (command == "validate") rc = CmdValidate(flags);
    else {
      std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
      return Usage();
    }
    if (!common.telemetry_path.empty())
      eval::WriteTelemetry(telemetry::Capture(), common.telemetry_path);
    if (!common.trace_path.empty()) {
      trace_events::WriteTrace(common.trace_path);
      const trace_events::Stats stats = trace_events::GetStats();
      if (stats.dropped > 0)
        std::fprintf(stderr,
                     "trace: ring wrapped, %llu events dropped (raise "
                     "capacity via trace_events::SetRingCapacity)\n",
                     static_cast<unsigned long long>(stats.dropped));
    }

    // Sampler down before the mem stamp so its final fold is part of
    // the recorded peak (idempotent when it never ran).
    resource::StopSampler();
    if (!manifest_path.empty() || !ledger_path.empty()) {
      manifest.completed = rc == 0;
      manifest.wall_time_seconds = std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() -
                                       start)
                                       .count();
      manifest.FillFromSnapshot(telemetry::Capture());
      FillMem(manifest);
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
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    resource::StopSampler();
    // Leave crash evidence: finalize the manifest as a failed run.
    if (!manifest_path.empty()) {
      try {
        manifest.completed = false;
        manifest.error = e.what();
        manifest.wall_time_seconds = std::chrono::duration<double>(
                                         std::chrono::steady_clock::now() -
                                         start)
                                         .count();
        manifest.FillFromSnapshot(telemetry::Capture());
        FillMem(manifest);
        manifest.Save(manifest_path);
      } catch (const std::exception&) {
        // The original error is the one worth reporting.
      }
    }
    return 1;
  }
}
