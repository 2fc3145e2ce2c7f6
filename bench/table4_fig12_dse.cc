/// \file
/// Table 4 + Figure 12 reproduction: design-space exploration on the
/// cycle-level simulator, driven by the batched eval::DseSweep. Sampling
/// plans are built from the *baseline* hardware profile; ground truth
/// comes from FULL cycle simulation of every kernel on five
/// microarchitecture variants (baseline, cache x2, cache x1/2, #SM x2,
/// #SM x1/2). All (variant, workload) points run concurrently over the
/// shared profiled traces -- results are byte-identical to a serial
/// point-by-point loop at any --threads (the sweep's determinism
/// contract, DESIGN.md section 12). Workloads are reduced (Sec. 5.4) so
/// the full simulations complete here: 11 Rodinia-like workloads plus the
/// 6 HuggingFace-like LLM/ML workloads with truncated graphs and scaled
/// per-kernel work. --threads sizes the sweep.

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/csv.h"
#include "common/str.h"
#include "common/table.h"
#include "eval/dse.h"
#include "workloads/huggingface.h"
#include "workloads/rodinia.h"

using namespace stemroot;

namespace {

/// Reduced workload roster: name -> profiled trace.
std::vector<KernelTrace> ReducedWorkloads(const hw::HardwareModel& gpu) {
  std::vector<KernelTrace> traces;
  // 11 of the 13 Rodinia workloads (heartwall and lavaMD are excluded:
  // even reduced, their single long kernels dominate simulation time --
  // the same practicality filter the paper applies).
  for (const std::string& name : workloads::RodiniaNames()) {
    if (name == "heartwall" || name == "lavaMD") continue;
    workloads::WorkloadSpec spec = workloads::RodiniaSpec(name, 0.05);
    KernelTrace trace =
        workloads::GenerateWorkload(spec, DeriveSeed(bench::kSeed, 1));
    gpu.ProfileTrace(trace, DeriveSeed(bench::kSeed, 2));
    traces.push_back(std::move(trace));
  }
  // 6 HuggingFace LLM/ML workloads: graph truncated to ~1.5k launches,
  // per-kernel work scaled 1:100.
  for (const std::string& name : workloads::HuggingfaceNames()) {
    workloads::WorkloadSpec spec = workloads::HuggingfaceSpec(name, 0.01);
    spec.iterations = 1;
    if (spec.graph.size() > 1500) spec.graph.resize(1500);
    workloads::ScaleSpecWork(spec, 0.01);
    KernelTrace trace =
        workloads::GenerateWorkload(spec, DeriveSeed(bench::kSeed, 3));
    gpu.ProfileTrace(trace, DeriveSeed(bench::kSeed, 4));
    traces.push_back(std::move(trace));
  }
  return traces;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session(argc, argv);

  eval::DseSweepOptions sweep_options;
  sweep_options.seed = bench::kSeed;

  std::printf("=== Table 4 + Figure 12: DSE on the cycle-level simulator "
              "===\n(11 reduced Rodinia + 6 reduced LLM workloads; full "
              "vs sampled cycle simulation)\n\n");
  const hw::GpuSpec base_spec = hw::GpuSpec::Rtx2080();
  hw::HardwareModel gpu(base_spec);
  const std::vector<KernelTrace> traces = ReducedWorkloads(gpu);

  // Plans come from the baseline profile only (the Sec. 5.4 protocol).
  bench::SamplerSet samplers = bench::MakeStandardSamplers(0.10, true);
  std::vector<std::vector<core::SamplingPlan>> plans(traces.size());
  for (size_t w = 0; w < traces.size(); ++w)
    for (const core::Sampler* sampler : samplers.pointers)
      plans[w].push_back(sampler->BuildPlan(traces[w], bench::kSeed));
  std::vector<eval::DseWorkload> sweep_workloads;
  for (size_t w = 0; w < traces.size(); ++w)
    sweep_workloads.push_back({&traces[w], plans[w]});

  const eval::DseSweep sweep(eval::StandardDseVariants(base_spec),
                             sweep_options);
  std::printf("-- sweeping %zu points (%zu variants x %zu workloads) "
              "concurrently...\n",
              sweep.Variants().size() * sweep_workloads.size(),
              sweep.Variants().size(), sweep_workloads.size());
  const auto sweep_start = std::chrono::steady_clock::now();
  const eval::DseSweepResult result = sweep.Run(sweep_workloads);
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();

  CsvWriter csv(bench::ResultsDir() + "/table4_fig12_dse.csv");
  csv.WriteHeader({"variant", "workload", "method", "full_megacycles",
                   "estimated_megacycles", "error_pct"});
  for (const eval::DsePointResult& point : result.points)
    for (const eval::DsePointMethod& row : point.methods)
      csv.WriteRow({point.variant, point.workload, row.method,
                    Format("%.4f", point.full_cycles / 1e6),
                    Format("%.4f", row.estimated_cycles / 1e6),
                    Format("%.4f", row.error_pct)});

  // --- Table 4 layout: rows = uarch change, columns = methods. ---
  std::vector<std::string> methods;
  for (const core::Sampler* sampler : samplers.pointers)
    methods.push_back(sampler->Name());
  std::vector<std::string> headers = {"uarch change"};
  for (const std::string& m : methods) headers.push_back(m + " err(%)");
  TextTable table(headers);
  table.SetTitle("\nTable 4: average sampled-simulation error (%) across "
                 "microarchitecture variants");
  for (size_t v = 0; v < sweep.Variants().size(); ++v) {
    std::vector<std::string> cells = {sweep.Variants()[v].name};
    for (const std::string& m : methods)
      cells.push_back(TextTable::Num(result.MeanErrorPct(v, m), 2));
    table.AddRow(std::move(cells));
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("sweep wall time: %.2fs at %d threads\n", sweep_seconds,
              session.threads());
  std::printf("Figure 12's per-workload full-vs-estimated cycle counts "
              "are in %s/table4_fig12_dse.csv\n",
              bench::ResultsDir().c_str());
  return 0;
}
