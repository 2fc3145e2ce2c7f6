#include "eval/dse.h"

#include <cmath>
#include <stdexcept>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"

namespace stemroot::eval {

std::vector<DseVariant> StandardDseVariants(const hw::GpuSpec& base) {
  return {
      {"Baseline", base},
      {"Cache x2", base.WithCacheScale(2.0)},
      {"Cache x1/2", base.WithCacheScale(0.5)},
      {"#SM x2", base.WithSmScale(2.0)},
      {"#SM x1/2", base.WithSmScale(0.5)},
  };
}

std::vector<double> RetimeTrace(const KernelTrace& trace,
                                const TimingFn& fn) {
  std::vector<double> durations;
  durations.reserve(trace.NumInvocations());
  for (const KernelInvocation& inv : trace.Invocations())
    durations.push_back(fn(inv));
  return durations;
}

TimingFn AnalyticTiming(const hw::HardwareModel& gpu, uint64_t run_seed) {
  return [&gpu, run_seed](const KernelInvocation& inv) {
    return gpu.SampleTimeUs(inv, run_seed);
  };
}

std::vector<EvalResult> EvaluatePlansOnVariant(
    std::span<const core::SamplingPlan> plans,
    std::span<const double> variant_durations_us,
    const std::string& workload) {
  std::vector<EvalResult> results;
  results.reserve(plans.size());
  for (const core::SamplingPlan& plan : plans)
    results.push_back(
        EvaluatePlanOnDurations(plan, variant_durations_us, workload));
  return results;
}

// ---------------------------------------------------------------------------
// Batched cycle-level DSE sweep

double DsePointResult::MeanErrorPct() const {
  if (methods.empty()) return 0.0;
  double sum = 0.0;
  for (const DsePointMethod& m : methods) sum += m.error_pct;
  return sum / static_cast<double>(methods.size());
}

RunManifest DsePointResult::ToManifest(std::string_view tool,
                                       std::string_view suite) const {
  RunManifest m;
  m.tool = std::string(tool);
  m.command = "dse-point";
  m.completed = true;
  m.StampBuild();
  m.config.suite = std::string(suite);
  m.config.workload = workload;
  m.config.gpu = variant;
  std::string joined;
  for (const DsePointMethod& row : methods) {
    if (!joined.empty()) joined += '+';
    joined += row.method;
  }
  m.config.method = joined;
  m.config.seed = seed;
  m.config.threads = NumThreads();

  m.metrics.present = true;
  m.metrics.error_pct = MeanErrorPct();
  // Harmonic-mean speedup over methods (the paper's convention), where a
  // method's speedup is full cost / its simulated cost.
  double inv_sum = 0.0;
  size_t speedup_rows = 0;
  uint64_t kernels = 0;
  for (const DsePointMethod& row : methods) {
    kernels += row.kernels_simulated;
    if (row.cost_cycles > 0.0 && full_cycles > 0.0) {
      inv_sum += row.cost_cycles / full_cycles;
      ++speedup_rows;
    }
  }
  if (inv_sum > 0.0)
    m.metrics.speedup = static_cast<double>(speedup_rows) / inv_sum;
  m.metrics.num_samples = kernels;
  return m;
}

const DsePointResult& DseSweepResult::At(size_t variant_index,
                                         size_t workload_index) const {
  if (variant_index >= num_variants || workload_index >= num_workloads)
    throw std::out_of_range("DseSweepResult::At: index out of range");
  return points[variant_index * num_workloads + workload_index];
}

double DseSweepResult::MeanErrorPct(size_t variant_index,
                                    std::string_view method) const {
  if (num_workloads == 0)
    throw std::out_of_range("DseSweepResult::MeanErrorPct: empty sweep");
  double sum = 0.0;
  for (size_t w = 0; w < num_workloads; ++w) {
    const DsePointResult& point = At(variant_index, w);
    bool found = false;
    for (const DsePointMethod& row : point.methods) {
      if (row.method == method) {
        sum += row.error_pct;
        found = true;
        break;
      }
    }
    if (!found)
      throw std::out_of_range("DseSweepResult::MeanErrorPct: no method \"" +
                              std::string(method) + "\"");
  }
  return sum / static_cast<double>(num_workloads);
}

DseSweep::DseSweep(std::vector<DseVariant> variants, DseSweepOptions options)
    : variants_(std::move(variants)), options_(std::move(options)) {
  if (variants_.empty())
    throw std::invalid_argument("DseSweep: no variants");
  if (options_.sweep_threads < 0)
    throw std::invalid_argument("DseSweep: sweep_threads < 0");
}

uint64_t DseSweep::PointSeed(size_t variant_index,
                             size_t workload_index) const {
  // Masked to 53 bits so the seed survives the manifest's JSON number
  // encoding exactly (doubles round-trip integers up to 2^53): a saved
  // dse-point manifest must reload with an identical fingerprint.
  return DeriveSeed(DeriveSeed(options_.seed, variant_index),
                    workload_index) &
         ((uint64_t{1} << 53) - 1);
}

DsePointResult DseSweep::RunPoint(size_t variant_index,
                                  const DseWorkload& workload,
                                  size_t workload_index) const {
  if (variant_index >= variants_.size())
    throw std::out_of_range("DseSweep::RunPoint: variant index out of range");
  if (workload.trace == nullptr)
    throw std::invalid_argument("DseSweep::RunPoint: null trace");
  const DseVariant& variant = variants_[variant_index];
  const sim::SimConfig config = sim::SimConfig::FromSpec(variant.spec);

  sim::TraceSimOptions sim_options;
  sim_options.seed = PointSeed(variant_index, workload_index);
  sim_options.flush_l2_between_kernels = options_.flush_l2_between_kernels;
  sim_options.warmup = options_.warmup;

  DsePointResult point;
  point.variant = variant.name;
  point.workload = workload.trace->WorkloadName();
  point.variant_index = variant_index;
  point.workload_index = workload_index;
  point.seed = sim_options.seed;

  const sim::TraceSimResult full =
      sim::SimulateTraceFull(*workload.trace, config, sim_options);
  point.full_cycles = full.total_cycles;
  for (const core::SamplingPlan& plan : workload.plans) {
    const sim::SampledSimResult sampled =
        sim::SimulateSampled(*workload.trace, plan, config, sim_options);
    DsePointMethod row;
    row.method = plan.method;
    row.estimated_cycles = sampled.estimated_total_cycles;
    row.cost_cycles = sampled.simulated_cost_cycles;
    row.kernels_simulated = sampled.kernels_simulated;
    row.error_pct =
        full.total_cycles > 0.0
            ? std::abs(sampled.estimated_total_cycles - full.total_cycles) /
                  full.total_cycles * 100.0
            : 0.0;
    point.methods.push_back(std::move(row));
  }
  return point;
}

DseSweepResult DseSweep::Run(std::span<const DseWorkload> workloads) const {
  telemetry::Span span("simulate");
  DseSweepResult result;
  result.num_variants = variants_.size();
  result.num_workloads = workloads.size();
  const size_t n = result.num_variants * result.num_workloads;
  result.points.resize(n);
  if (n == 0) return result;
  // Index-addressed slots + per-point derived seeds: the concurrent sweep
  // is byte-identical to a serial RunPoint loop at any lane count.
  ParallelLanes(n, static_cast<size_t>(options_.sweep_threads),
                [&](size_t i) {
                  const size_t vi = i / result.num_workloads;
                  const size_t wi = i % result.num_workloads;
                  result.points[i] = RunPoint(vi, workloads[wi], wi);
                });
  telemetry::Count("dse.points", n);
  return result;
}

}  // namespace stemroot::eval
