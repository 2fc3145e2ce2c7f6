/// \file
/// batch_hf: the paper's Table 3 path at the largest trace size. The two
/// largest HuggingFace traces (gpt2, bloom) at scale 1 go through
/// eval::EvaluateRepeated with STEM and 10 reps. Batch ROOT inside
/// BuildPlan takes ~99% of a pass, so this workload moves with core/eval
/// changes and barely touches trace, sim or service.

#include "common/rng.h"
#include "common/stats.h"
#include "eval/metrics.h"
#include "harness.h"

namespace stemroot::bench {

namespace {

constexpr uint32_t kReps = 10;
const char* const kTraces[] = {"gpt2", "bloom"};

std::string DigestOf(const eval::EvalResult& r) {
  return Digest()
      .Add(r.method)
      .Add(r.workload)
      .Add(r.speedup)
      .Add(r.error_pct)
      .Add(r.theoretical_error_pct)
      .Add(static_cast<double>(r.num_samples))
      .Add(static_cast<double>(r.num_clusters))
      .Add(r.estimated_total_us)
      .Add(r.true_total_us)
      .Hex();
}

}  // namespace

void RunBatchHf(Run& run) {
  const uint64_t seed = run.Cfg().seed;
  const std::unique_ptr<core::Sampler> sampler = MakeSampler("stem");
  // The Pipeline::Evaluate seed contract.
  const uint64_t base_seed = DeriveSeed(seed, HashString(sampler->Name()));

  const std::vector<eval::Pipeline> pipelines = run.Setup([&] {
    std::vector<eval::Pipeline> out;
    for (const char* name : kTraces)
      out.push_back(GenerateProfiled(workloads::SuiteId::kHuggingface, name,
                                     seed, 1.0));
    return out;
  });
  uint64_t invocations = 0;
  for (const eval::Pipeline& p : pipelines)
    invocations += p.Trace().NumInvocations();
  run.SetSizes("huggingface gpt2+bloom scale 1, stem, reps " +
               std::to_string(kReps) + ", " + std::to_string(invocations) +
               " invocations");

  std::vector<eval::EvalResult> results(pipelines.size());
  run.Passes([&](uint64_t) {
    for (size_t i = 0; i < pipelines.size(); ++i) {
      results[i] = Traced("eval.EvaluateRepeated", [&] {
        return eval::EvaluateRepeated(*sampler, pipelines[i].Trace(), kReps,
                                      base_seed);
      });
      run.Check(kTraces[i], DigestOf(results[i]));
    }
  });
  run.Set("batch_minv_per_s", static_cast<double>(invocations) * kReps /
                                  Median(run.PassSamples()) / 1e6);

  // EvaluateRepeated = BuildPlan + EvaluatePlan per rep (seed base + r),
  // averaged with the paper's conventions.
  double clusters = 0.0;
  double samples = 0.0;
  std::vector<double> rep_errors;
  run.Decompose([&] {
    for (size_t i = 0; i < pipelines.size(); ++i) {
      const KernelTrace& trace = pipelines[i].Trace();
      const uint32_t runs = sampler->Deterministic() ? 1 : kReps;
      std::vector<double> speedups;
      std::vector<double> errors;
      eval::EvalResult first;
      for (uint32_t r = 0; r < runs; ++r) {
        const core::SamplingPlan plan = Traced("core.BuildPlan", [&] {
          return sampler->BuildPlan(trace, base_seed + r);
        });
        const eval::EvalResult one = Traced("eval.EvaluatePlan", [&] {
          return eval::EvaluatePlan(trace, plan);
        });
        clusters += static_cast<double>(plan.num_clusters);
        samples += static_cast<double>(plan.NumSamples());
        if (r == 0) first = one;
        speedups.push_back(one.speedup);
        errors.push_back(one.error_pct);
        rep_errors.push_back(one.error_pct);
      }
      first.speedup = HarmonicMean(speedups);
      first.error_pct = Mean(errors);
      run.Check(kTraces[i], DigestOf(first));
    }
  });
  if (!run.Cfg().trace) return;

  Tracer& tracer = Tracer::Get();
  const double build_plan_s = tracer.Total("core.BuildPlan");
  const double evaluate_plan_s = tracer.Total("eval.EvaluatePlan");
  const double wall_per_pass = tracer.Total("eval.EvaluateRepeated") /
                               tracer.Durations("pass").size();
  run.Set("workloads.generate_s", tracer.Total("workloads.generate"));
  run.Set("workloads.invocations", static_cast<double>(invocations));
  run.Set("hw.profile_s", tracer.Total("hw.profile"));
  run.Set("core.build_plan_s", build_plan_s);
  run.Set("core.build_plan_calls",
          static_cast<double>(tracer.Durations("core.BuildPlan").size()));
  run.Set("core.clusters", clusters);
  run.Set("core.samples", samples);
  run.Set("eval.evaluate_plan_s", evaluate_plan_s);
  run.Set("eval.parallel_efficiency",
          (build_plan_s + evaluate_plan_s) /
              (run.Cfg().threads * wall_per_pass));

  std::vector<double> errors;
  std::vector<double> speedups;
  for (const eval::EvalResult& r : results) {
    errors.push_back(r.error_pct);
    speedups.push_back(r.speedup);
  }
  size_t within = 0;
  for (const double e : rep_errors) within += e <= kEpsilonPct;
  run.Set("eval.error_pct", Mean(errors));
  run.Set("eval.speedup_x", HarmonicMean(speedups));
  run.Set("eval.within_eps_frac",
          static_cast<double>(within) / rep_errors.size());
}

}  // namespace stemroot::bench
