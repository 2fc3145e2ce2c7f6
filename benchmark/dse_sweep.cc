/// \file
/// dse_sweep: the Table 4 design-space sweep on the cycle-level simulator.
/// Eight Rodinia workloads at scale 0.05 x the five standard variants,
/// methods stem and random, through eval::DseSweep. The simulator takes
/// more than 99% of a pass (planning is ~1 ms of set-up), so this workload
/// moves with sim changes only. The 40 points are uneven, so the slowest
/// point sets the sweep time.
///
/// The design space (traces and plans) is generated from a fixed suite
/// seed; the run's seed drives the simulator's synthetic instruction
/// streams through the sweep seed. Which invocations a plan samples decides
/// how much a sampled simulation replays, and regenerating the traces per
/// seed moved the sweep time by up to 40%, which would hide any change in
/// the simulator's own speed.

#include <cmath>

#include "common/stats.h"
#include "eval/dse.h"
#include "eval/options.h"
#include "harness.h"
#include "sim/sampled_sim.h"

namespace stemroot::bench {

namespace {

constexpr double kScale = 0.05;
constexpr uint64_t kSuiteSeed = kDefaultSeed;
const char* const kWorkloads[] = {"backprop", "bfs",     "b+tree",
                                  "cfd",      "gaussian", "hotspot",
                                  "kmeans",   "lud"};
const char* const kMethods[] = {"stem", "random"};

struct Inputs {
  std::vector<eval::Pipeline> pipelines;
  std::vector<std::vector<core::SamplingPlan>> plans;  ///< per workload
};

std::string DigestOf(const eval::DseSweepResult& result) {
  Digest d;
  for (const eval::DsePointResult& p : result.points) {
    d.Add(p.variant).Add(p.workload).Add(static_cast<double>(p.seed));
    d.Add(p.full_cycles);
    for (const eval::DsePointMethod& m : p.methods)
      d.Add(m.method)
          .Add(m.estimated_cycles)
          .Add(m.cost_cycles)
          .Add(static_cast<double>(m.kernels_simulated))
          .Add(m.error_pct);
  }
  return d.Hex();
}

}  // namespace

void RunDseSweep(Run& run) {
  const uint64_t seed = run.Cfg().seed;  // the sweep seed
  std::vector<std::unique_ptr<core::Sampler>> samplers;
  for (const char* method : kMethods) samplers.push_back(MakeSampler(method));

  // Plans come from the baseline profile (the Sec. 5.4 protocol).
  const Inputs inputs = run.Setup([&] {
    Inputs in;
    for (const char* name : kWorkloads) {
      in.pipelines.push_back(GenerateProfiled(workloads::SuiteId::kRodinia,
                                              name, kSuiteSeed, kScale));
      std::vector<core::SamplingPlan>& plans = in.plans.emplace_back();
      for (const auto& sampler : samplers)
        plans.push_back(Traced("core.BuildPlan", [&] {
          return in.pipelines.back().Sample(*sampler);
        }));
    }
    return in;
  });
  std::vector<eval::DseWorkload> sweep_inputs;
  uint64_t invocations = 0;
  for (size_t w = 0; w < inputs.pipelines.size(); ++w) {
    sweep_inputs.push_back({&inputs.pipelines[w].Trace(), inputs.plans[w]});
    invocations += inputs.pipelines[w].Trace().NumInvocations();
  }
  const eval::DseSweep sweep(
      eval::StandardDseVariants(eval::ResolveGpu("rtx2080")),
      {.seed = seed, .sweep_threads = run.Cfg().threads});
  const size_t num_variants = sweep.Variants().size();
  run.SetSizes("rodinia x8 scale 0.05, 5 variants, stem+random, " +
               std::to_string(invocations) + " invocations");

  eval::DseSweepResult result;
  run.Passes([&](uint64_t) {
    result = Traced("eval.DseSweep.Run",
                    [&] { return sweep.Run(sweep_inputs); });
    run.Check("points", DigestOf(result));
  });
  double simulated_cycles = 0.0;
  for (const eval::DsePointResult& p : result.points) {
    simulated_cycles += p.full_cycles;
    for (const eval::DsePointMethod& m : p.methods)
      simulated_cycles += m.cost_cycles;
  }
  run.Set("sim_mcycles_per_s",
          simulated_cycles / 1e6 / Median(run.PassSamples()));

  // DseSweep::Run = SimulateTraceFull + SimulateSampled per point, with the
  // point's seed, run serially.
  double warp_instructions = 0.0;
  double kernels_simulated = 0.0;
  run.Decompose([&] {
    eval::DseSweepResult serial;
    serial.num_variants = num_variants;
    serial.num_workloads = sweep_inputs.size();
    for (size_t v = 0; v < num_variants; ++v) {
      const sim::SimConfig config =
          sim::SimConfig::FromSpec(sweep.Variants()[v].spec);
      for (size_t w = 0; w < sweep_inputs.size(); ++w) {
        Span point_span("dse.point", v * sweep_inputs.size() + w + 1);
        const KernelTrace& trace = *sweep_inputs[w].trace;
        const eval::DseSweepOptions& swept = sweep.Options();
        const sim::TraceSimOptions options{
            .seed = sweep.PointSeed(v, w),
            .flush_l2_between_kernels = swept.flush_l2_between_kernels,
            .warmup = swept.warmup,
            .shard = swept.shard};
        eval::DsePointResult& point = serial.points.emplace_back();
        point.variant = sweep.Variants()[v].name;
        point.workload = trace.WorkloadName();
        point.variant_index = v;
        point.workload_index = w;
        point.seed = options.seed;
        const sim::TraceSimResult full = Traced("sim.SimulateTraceFull", [&] {
          return sim::SimulateTraceFull(trace, config, options);
        });
        point.full_cycles = full.total_cycles;
        warp_instructions += static_cast<double>(full.stats.warp_instructions);
        kernels_simulated += static_cast<double>(trace.NumInvocations());
        for (const core::SamplingPlan& plan : sweep_inputs[w].plans) {
          const sim::SampledSimResult sampled =
              Traced("sim.SimulateSampled", [&] {
                return sim::SimulateSampled(trace, plan, config, options);
              });
          kernels_simulated += static_cast<double>(sampled.kernels_simulated);
          point.methods.push_back(
              {.method = plan.method,
               .estimated_cycles = sampled.estimated_total_cycles,
               .cost_cycles = sampled.simulated_cost_cycles,
               .kernels_simulated = sampled.kernels_simulated,
               .error_pct = full.total_cycles > 0.0
                                ? std::abs(sampled.estimated_total_cycles -
                                           full.total_cycles) /
                                      full.total_cycles * 100.0
                                : 0.0});
        }
      }
    }
    run.Check("points", DigestOf(serial));
  });
  if (!run.Cfg().trace) return;

  Tracer& tracer = Tracer::Get();
  const double full_s = tracer.Total("sim.SimulateTraceFull");
  const std::vector<double> points = tracer.Durations("dse.point");
  double point_sum = 0.0;
  for (const double p : points) point_sum += p;
  double full_cycles = 0.0;
  double sampled_cycles = 0.0;
  std::vector<double> stem_errors;
  std::vector<double> stem_speedups;
  size_t within = 0;
  for (const eval::DsePointResult& p : result.points) {
    full_cycles += p.full_cycles;
    for (const eval::DsePointMethod& m : p.methods) {
      sampled_cycles += m.cost_cycles;
      if (m.method != samplers.front()->Name()) continue;
      stem_errors.push_back(m.error_pct);
      stem_speedups.push_back(p.full_cycles / m.cost_cycles);
      within += m.error_pct <= kEpsilonPct;
    }
  }
  run.Set("workloads.generate_s", tracer.Total("workloads.generate"));
  run.Set("workloads.invocations", static_cast<double>(invocations));
  run.Set("hw.profile_s", tracer.Total("hw.profile"));
  run.Set("core.build_plan_s", tracer.Total("core.BuildPlan"));
  run.Set("core.build_plan_calls",
          static_cast<double>(tracer.Durations("core.BuildPlan").size()));
  run.Set("sim.full_s", full_s);
  run.Set("sim.sampled_s", tracer.Total("sim.SimulateSampled"));
  run.Set("sim.full_mcycles", full_cycles / 1e6);
  run.Set("sim.sampled_mcycles", sampled_cycles / 1e6);
  run.Set("sim.kernels_simulated", kernels_simulated);
  run.Set("sim.warp_instructions", warp_instructions);
  run.Set("sim.mwinst_per_s", warp_instructions / full_s / 1e6);
  run.Set("dse.point_p50_s", Median(points));
  run.Set("dse.point_max_s", Pct(points, 100));
  run.Set("dse.sweep_efficiency",
          point_sum / (run.Cfg().threads * Median(tracer.Durations(
                                                "eval.DseSweep.Run"))));
  run.Set("eval.error_pct", Mean(stem_errors));
  run.Set("eval.speedup_x", HarmonicMean(stem_speedups));
  run.Set("eval.within_eps_frac",
          static_cast<double>(within) / stem_errors.size());
}

}  // namespace stemroot::bench
