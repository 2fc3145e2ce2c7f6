/// \file
/// Sec. 5.6 scalability microbenchmarks (google-benchmark): STEM+ROOT's
/// near-linear analysis cost vs. Photon's superlinear BBV comparison cost
/// as the number of kernel invocations N grows, plus the building blocks
/// (1-D k-means, the KKT solver, trace generation + profiling) and the
/// thread scaling of the parallel evaluation engine (results are
/// bit-identical at every thread count; only wall-clock changes).

#include <benchmark/benchmark.h>

#include "common/journal.h"
#include "common/parallel.h"
#include "common/resource.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/trace_events.h"

#include "baselines/photon.h"
#include "bench_util.h"
#include "core/kkt.h"
#include "core/kmeans.h"
#include "core/sampler.h"
#include "eval/dse.h"
#include "eval/pipeline.h"
#include "eval/runner.h"
#include "eval/stream.h"
#include "hw/hardware_model.h"
#include "service/metrics.h"
#include "workloads/casio.h"
#include "workloads/rodinia.h"

using namespace stemroot;

namespace {

/// Profiled bert_infer-like trace with ~`n` invocations.
KernelTrace TraceOfSize(int64_t n) {
  const double scale =
      static_cast<double>(n) / 63000.0;  // bert_infer ~63k at scale 1
  KernelTrace trace = workloads::MakeCasio("bert_infer", 7, scale);
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  gpu.ProfileTrace(trace, 1);
  return trace;
}

void BM_StemRootBuildPlan(benchmark::State& state) {
  const KernelTrace trace = TraceOfSize(state.range(0));
  core::StemRootSampler sampler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.BuildPlan(trace, 1));
  }
  state.SetComplexityN(static_cast<int64_t>(trace.NumInvocations()));
}
BENCHMARK(BM_StemRootBuildPlan)
    ->RangeMultiplier(4)
    ->Range(1000, 256000)
    ->Complexity(benchmark::oNLogN)
    ->Unit(benchmark::kMillisecond);

void BM_PhotonBuildPlan(benchmark::State& state) {
  const KernelTrace trace = TraceOfSize(state.range(0));
  baselines::PhotonSampler sampler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.BuildPlan(trace, 1));
  }
  state.SetComplexityN(static_cast<int64_t>(trace.NumInvocations()));
  state.counters["bbv_comparisons"] = static_cast<double>(
      baselines::PhotonSampler::LastComparisonCount());
}
BENCHMARK(BM_PhotonBuildPlan)
    ->RangeMultiplier(4)
    ->Range(1000, 64000)
    ->Unit(benchmark::kMillisecond);

/// Args: (n, shape). Shape 0 is one log-normal mode. Shape 1 is what ROOT
/// splits on gpt2's largest kernel: a log-normal body plus a far mode
/// holding ~0.6% of the points, interleaved through the population.
void BM_Kmeans1D(benchmark::State& state) {
  Rng rng(3);
  const bool root_shaped = state.range(1) != 0;
  std::vector<double> values(static_cast<size_t>(state.range(0)));
  for (auto& v : values) {
    if (!root_shaped) {
      v = rng.NextLogNormal(3.0, 1.0);
    } else {
      v = rng.NextBounded(1000) < 6 ? rng.NextLogNormal(4.6, 0.05)
                                    : rng.NextLogNormal(3.0, 0.25);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Kmeans1D(values, 2));
  }
}
BENCHMARK(BM_Kmeans1D)
    ->ArgsProduct({benchmark::CreateRange(1000, 512000, 8), {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_KktSolver(benchmark::State& state) {
  Rng rng(5);
  std::vector<core::ClusterStats> clusters(
      static_cast<size_t>(state.range(0)));
  for (auto& c : clusters) {
    c.n = 1 + rng.NextBounded(100000);
    c.mean = rng.NextDouble(1.0, 500.0);
    c.stddev = rng.NextDouble(0.0, c.mean);
  }
  core::StemConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SolveKkt(clusters, config));
  }
}
BENCHMARK(BM_KktSolver)->RangeMultiplier(8)->Range(8, 4096)
    ->Unit(benchmark::kMicrosecond);

void BM_GenerateAndProfile(benchmark::State& state) {
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  const double scale = static_cast<double>(state.range(0)) / 63000.0;
  for (auto _ : state) {
    KernelTrace trace = workloads::MakeCasio("bert_infer", 7, scale);
    gpu.ProfileTrace(trace, 1);
    benchmark::DoNotOptimize(trace.TotalDurationUs());
  }
}
BENCHMARK(BM_GenerateAndProfile)
    ->RangeMultiplier(8)
    ->Range(1000, 512000)
    ->Unit(benchmark::kMillisecond);

/// RAII: pin the engine to `n` threads, restore auto on exit so later
/// benchmarks are unaffected.
struct ScopedThreads {
  explicit ScopedThreads(int n) { SetNumThreads(n); }
  ~ScopedThreads() { SetNumThreads(0); }
};

/// ProfileTrace over one large trace at 1/2/4/8 threads. Per-invocation
/// timing streams derive from (run_seed, invocation seq), so durations are
/// identical at every arg; wall-clock should drop near-linearly up to the
/// physical core count.
void BM_ProfileTraceThreads(benchmark::State& state) {
  ScopedThreads scoped(static_cast<int>(state.range(0)));
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  KernelTrace trace = workloads::MakeCasio("bert_infer", 7, 4.0);
  for (auto _ : state) {
    gpu.ProfileTrace(trace, 1);
    benchmark::DoNotOptimize(trace.TotalDurationUs());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.NumInvocations()));
}
BENCHMARK(BM_ProfileTraceThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// End-to-end RunSuite sweep (the Table 3 / Fig. 7 engine) over a CASIO
/// subset at 1/2/4/8 threads. The acceptance target is >= 3x real-time
/// speedup at 8 threads on an >= 8-core machine; `results.rows` is
/// byte-identical across args (tests/eval/parallel_determinism_test.cc
/// pins this).
void BM_SuiteSweepThreads(benchmark::State& state) {
  ScopedThreads scoped(static_cast<int>(state.range(0)));
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  bench::SamplerSet samplers = bench::MakeStandardSamplers(0.001, false);
  eval::SuiteRunConfig config;
  config.suite = workloads::SuiteId::kCasio;
  config.size_scale = 0.05;
  config.reps = 3;
  config.seed = bench::kSeed;
  config.only_workloads = {"bert_infer", "dlrm_infer", "gnmt_infer",
                           "ncf_infer", "resnet50_train", "unet_train",
                           "ssdrn34_infer", "resnet50_infer"};
  for (auto _ : state) {
    const eval::SuiteResults results =
        eval::RunSuite(config, gpu, samplers.pointers);
    benchmark::DoNotOptimize(results.rows.size());
  }
}
BENCHMARK(BM_SuiteSweepThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// EvaluateRepeated at 1/2/4/8 threads: one workload, STEM, 16 reps. The
/// reps share one clustering, so an iteration is one ROOT pass fanned out
/// per kernel plus KKT, then 16 parallel draws and plan evaluations.
void BM_EvaluateRepeatedThreads(benchmark::State& state) {
  ScopedThreads scoped(static_cast<int>(state.range(0)));
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  const KernelTrace trace =
      eval::Pipeline::GenerateProfiled(
          {.suite = workloads::SuiteId::kCasio,
           .workload = "bert_infer",
           .options = {.seed = bench::kSeed, .size_scale = 0.2}},
          gpu)
          .Trace();
  core::StemRootSampler sampler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eval::EvaluateRepeated(sampler, trace, 16, bench::kSeed));
  }
}
BENCHMARK(BM_EvaluateRepeatedThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// A reduced DseSweep (2 variants x 2 workloads, full + sampled cycle
/// simulation per point) at 1/2/4/8 concurrent points. Every point is an
/// independent simulation with an index-derived seed, so the result set
/// is byte-identical at every arg.
void BM_DseSweepThreads(benchmark::State& state) {
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  std::vector<KernelTrace> traces;
  for (const char* name : {"hotspot", "lud"}) {
    KernelTrace trace = workloads::GenerateWorkload(
        workloads::RodiniaSpec(name, 0.05), bench::kSeed);
    gpu.ProfileTrace(trace, 1);
    traces.push_back(std::move(trace));
  }
  core::StemRootSampler sampler;
  std::vector<std::vector<core::SamplingPlan>> plans(traces.size());
  std::vector<eval::DseWorkload> workloads;
  for (size_t w = 0; w < traces.size(); ++w)
    plans[w].push_back(sampler.BuildPlan(traces[w], bench::kSeed));
  for (size_t w = 0; w < traces.size(); ++w)
    workloads.push_back({&traces[w], plans[w]});
  std::vector<eval::DseVariant> variants =
      eval::StandardDseVariants(hw::GpuSpec::Rtx2080());
  variants.resize(2);  // baseline + cache x2
  eval::DseSweepOptions options;
  options.seed = bench::kSeed;
  options.sweep_threads = static_cast<int>(state.range(0));
  const eval::DseSweep sweep(std::move(variants), options);
  for (auto _ : state) {
    const eval::DseSweepResult result = sweep.Run(workloads);
    benchmark::DoNotOptimize(result.points.size());
  }
}
BENCHMARK(BM_DseSweepThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The out-of-core trace-size axis (DESIGN.md section 16): StreamTrace
/// over a ReplicatedChunkSource that tiles one profiled bert_infer base
/// trace out to N logical invocations -- 10^8 here with full online
/// clustering, 10^9 in the decode-only variant below; orders of
/// magnitude more than fits in memory as KernelInvocation structs.
/// Analysis cost must stay O(N) while the resident footprint
/// stays pinned at the source's chunk budget (about two decoded chunks),
/// reported here as the resident_budget_bytes counter; check.sh gates
/// the same bound end to end via the manifest's logical `trace` peak.
void BM_StreamTraceLogicalSize(benchmark::State& state) {
  const KernelTrace base = TraceOfSize(63000);
  const ReplicatedChunkSource source(
      base, static_cast<uint64_t>(state.range(0)), uint64_t{1} << 20);
  eval::StreamOptions options;
  options.seed = bench::kSeed;
  for (auto _ : state) {
    const eval::StreamResult result = eval::StreamTrace(source, options);
    benchmark::DoNotOptimize(result.invocations);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["resident_budget_bytes"] =
      static_cast<double>(source.ResidentBudgetBytes());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StreamTraceLogicalSize)
    ->RangeMultiplier(10)
    ->Range(1000000, 100000000)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

/// The same axis with online clustering off isolates the raw chunk
/// materialization + fold cost -- the floor any out-of-core analysis
/// pays per invocation. The gap to BM_StreamTraceLogicalSize is the
/// incremental ROOT/STEM cost per streamed invocation.
void BM_StreamTraceDecodeOnly(benchmark::State& state) {
  const KernelTrace base = TraceOfSize(63000);
  const ReplicatedChunkSource source(
      base, static_cast<uint64_t>(state.range(0)), uint64_t{1} << 20);
  eval::StreamOptions options;
  options.seed = bench::kSeed;
  options.cluster = false;
  for (auto _ : state) {
    const eval::StreamResult result = eval::StreamTrace(source, options);
    benchmark::DoNotOptimize(result.invocations);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StreamTraceDecodeOnly)
    ->RangeMultiplier(10)
    ->Range(1000000, 1000000000)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

/// The observability off-switch contract: with telemetry, tracing, the
/// journal, and service metrics all disabled, every instrumentation
/// entry point costs one relaxed atomic load + branch. This is the
/// hot-path overhead gate for code that is instrumented everywhere
/// (ParallelFor chunks, ROOT recursion, k-means iterations, service
/// request paths); compare against BM_InstrumentationBaseline.
void BM_InstrumentationOff(benchmark::State& state) {
  telemetry::SetEnabled(false);
  trace_events::SetEnabled(false);
  journal::Close();  // disabled journal: Emit is one relaxed load
  resource::SetAccountingEnabled(false);  // Account/AccountPeak likewise
  service::ServiceMetrics metrics;  // default-disabled RecordRequest
  for (auto _ : state) {
    telemetry::Span span("bench.off");
    trace_events::Scope scope("bench.off");
    trace_events::Instant("bench.off");
    journal::Emit(journal::Severity::kInfo, "bench.off");
    resource::Account("bench.off", 1);
    resource::AccountPeak("bench.off", 1);
    metrics.RecordRequest(service::Verb::kQuery, 1.0, true);
    benchmark::DoNotOptimize(&span);
    benchmark::DoNotOptimize(&scope);
    benchmark::DoNotOptimize(&metrics);
  }
}
BENCHMARK(BM_InstrumentationOff);

/// Empty-loop baseline for BM_InstrumentationOff.
void BM_InstrumentationBaseline(benchmark::State& state) {
  for (auto _ : state) {
    int sink = 0;
    benchmark::DoNotOptimize(&sink);
  }
}
BENCHMARK(BM_InstrumentationBaseline);

}  // namespace

/// Custom main instead of BENCHMARK_MAIN(): open the standard bench
/// Session first (so --threads/--telemetry/--trace/--log-level and the
/// BENCH_perf_scalability.json summary work here like in every other
/// bench), then strip those flags before google-benchmark parses argv.
int main(int argc, char** argv) {
  stemroot::bench::Session session(argc, argv);
  stemroot::bench::Session::StripFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
