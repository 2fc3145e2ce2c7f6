#include "eval/metrics.h"

#include <cmath>
#include <stdexcept>

#include "common/parallel.h"
#include "common/resource.h"
#include "common/stats.h"
#include "common/telemetry.h"

namespace stemroot::eval {

namespace {

/// EvaluatePlan with the trace's total duration already summed, so a
/// caller evaluating many plans on one trace sums it once.
EvalResult EvaluatePlanWithTotal(const KernelTrace& trace,
                                 const core::SamplingPlan& plan,
                                 double true_total_us) {
  plan.Validate(trace.NumInvocations());
  telemetry::Count("eval.plan_evals");
  EvalResult result;
  result.method = plan.method;
  result.workload = trace.WorkloadName();
  result.true_total_us = true_total_us;
  result.estimated_total_us = plan.EstimateTotalUs(trace);
  if (result.true_total_us <= 0.0)
    throw std::invalid_argument("EvaluatePlan: unprofiled trace");
  result.error_pct = std::abs(result.estimated_total_us -
                              result.true_total_us) /
                     result.true_total_us * 100.0;
  const double sampled_cost = plan.SampledCostUs(trace);
  result.speedup =
      sampled_cost > 0.0 ? result.true_total_us / sampled_cost : 0.0;
  result.theoretical_error_pct = plan.theoretical_error * 100.0;
  result.num_samples = plan.NumSamples();
  result.num_clusters = plan.num_clusters;
  return result;
}

}  // namespace

EvalResult EvaluatePlan(const KernelTrace& trace,
                        const core::SamplingPlan& plan) {
  return EvaluatePlanWithTotal(trace, plan, trace.TotalDurationUs());
}

EvalResult EvaluatePlanOnDurations(const core::SamplingPlan& plan,
                                   std::span<const double> durations_us,
                                   const std::string& workload) {
  plan.Validate(durations_us.size());
  EvalResult result;
  result.method = plan.method;
  result.workload = workload;
  double total = 0.0;
  for (double d : durations_us) {
    if (d <= 0.0)
      throw std::invalid_argument(
          "EvaluatePlanOnDurations: non-positive duration");
    total += d;
  }
  result.true_total_us = total;
  result.estimated_total_us = plan.EstimateTotalUs(durations_us);
  result.error_pct =
      std::abs(result.estimated_total_us - total) / total * 100.0;
  const double sampled_cost = plan.SampledCostUs(durations_us);
  result.speedup = sampled_cost > 0.0 ? total / sampled_cost : 0.0;
  result.theoretical_error_pct = plan.theoretical_error * 100.0;
  result.num_samples = plan.NumSamples();
  result.num_clusters = plan.num_clusters;
  return result;
}

EvalResult EvaluateRepeated(const core::Sampler& sampler,
                            const KernelTrace& trace, uint32_t reps,
                            uint64_t base_seed) {
  if (reps == 0) throw std::invalid_argument("EvaluateRepeated: reps == 0");
  const uint32_t runs = sampler.Deterministic() ? 1 : reps;
  telemetry::Count("eval.evaluations");
  telemetry::Count("eval.plans_built", runs);

  // Rep r's plan is BuildPlan(trace, base_seed + r); BuildPlans shares
  // whatever the sampler can between reps (STEM clusters once). The reps'
  // evaluations are independent, so they fan out over threads; per-rep
  // results land in rep order and the averages below see the exact
  // sequence the serial loop produced.
  const std::vector<core::SamplingPlan> plans = [&] {
    telemetry::Span span("sample");
    return sampler.BuildPlans(trace, base_seed, runs);
  }();
  const double true_total_us = trace.TotalDurationUs();
  const std::vector<EvalResult> per_rep =
      ParallelMap(runs, [&](size_t r) {
        // Each rep's plan bytes depend only on (trace, base_seed + r);
        // AccountPeak's max over the rep set is schedule-invariant, so
        // the logical "plan" peak matches at any thread count.
        resource::AccountPeak("plan", plans[r].ApproxBytes());
        return EvaluatePlanWithTotal(trace, plans[r], true_total_us);
      });

  // Evaluation scratch: per-rep results plus the reduction vectors. A
  // pure function of `runs`, so the logical "eval" peak is deterministic.
  resource::AccountPeak("eval", static_cast<uint64_t>(runs) *
                                    (sizeof(EvalResult) +
                                     2 * sizeof(double)));

  std::vector<double> speedups;
  std::vector<double> errors;
  speedups.reserve(runs);
  errors.reserve(runs);
  for (const EvalResult& one : per_rep) {
    speedups.push_back(one.speedup);
    errors.push_back(one.error_pct);
    telemetry::Record("eval.error_pct", one.error_pct);
  }
  EvalResult avg = per_rep.front();
  avg.speedup = HarmonicMean(speedups);
  avg.error_pct = Mean(errors);
  return avg;
}

EvalResult AggregateSuite(std::span<const EvalResult> rows,
                          const std::string& method) {
  std::vector<double> speedups;
  std::vector<double> errors;
  EvalResult agg;
  agg.method = method;
  agg.workload = "average";
  for (const EvalResult& row : rows) {
    if (row.method != method) continue;
    speedups.push_back(row.speedup);
    errors.push_back(row.error_pct);
    agg.num_samples += row.num_samples;
    agg.num_clusters += row.num_clusters;
  }
  if (speedups.empty())
    throw std::invalid_argument("AggregateSuite: no rows for method " +
                                method);
  agg.speedup = HarmonicMean(speedups);
  agg.error_pct = Mean(errors);
  return agg;
}

}  // namespace stemroot::eval
