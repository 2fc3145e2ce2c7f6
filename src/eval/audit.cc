#include "eval/audit.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <stdexcept>

#include "common/json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "common/trace_events.h"
#include "core/kkt.h"
#include "core/stem.h"
#include "eval/pipeline.h"

namespace stemroot::eval {

namespace {

/// Slack for |realized| <= predicted comparisons: both sides are sums of
/// thousands of doubles, so exact-zero clusters must not fail on 1e-17
/// rounding residue.
constexpr double kTol = 1e-12;

/// Per-trial accumulation: what one seeded plan estimated for every
/// cluster and for the workload total.
struct Trial {
  std::vector<double> estimate_us;
  std::vector<uint64_t> draws;
  double total_estimate_us = 0.0;
};

std::string Pct(double v) { return TextTable::Num(100.0 * v, 3); }

}  // namespace

size_t WorkloadAudit::ClustersWithinBudget() const {
  return static_cast<size_t>(
      std::count_if(clusters.begin(), clusters.end(),
                    [](const ClusterAuditRow& r) { return r.within_budget; }));
}

size_t AuditReport::TotalClusters() const {
  size_t n = 0;
  for (const WorkloadAudit& w : workloads) n += w.clusters.size();
  return n;
}

size_t AuditReport::ClustersWithinBudget() const {
  size_t n = 0;
  for (const WorkloadAudit& w : workloads) n += w.ClustersWithinBudget();
  return n;
}

double AuditReport::WithinBudgetFraction() const {
  const size_t total = TotalClusters();
  if (total == 0) return 1.0;
  return static_cast<double>(ClustersWithinBudget()) /
         static_cast<double>(total);
}

double AuditReport::MeanCoverage() const {
  const size_t total = TotalClusters();
  if (total == 0) return 1.0;
  double sum = 0.0;
  for (const WorkloadAudit& w : workloads)
    for (const ClusterAuditRow& r : w.clusters) sum += r.coverage;
  return sum / static_cast<double>(total);
}

WorkloadAudit AuditWorkload(const KernelTrace& trace,
                            const core::Sampler& sampler,
                            const core::RootConfig& root, uint32_t trials,
                            uint64_t base_seed) {
  if (trials == 0)
    throw std::invalid_argument("AuditWorkload: trials must be >= 1");
  // The Span feeds both observability layers: telemetry timing and the
  // trace-event timeline (one "audit" B/E pair).
  telemetry::Span audit_span("audit");

  // The reference view: STEM's own partition + joint allocation under the
  // audit's epsilon/confidence, independent of the audited sampler.
  const core::StemClustering clustering =
      core::BuildStemClusters(trace, root);
  const size_t num_clusters = clustering.clusters.size();

  std::vector<core::ClusterStats> stats;
  stats.reserve(num_clusters);
  for (const core::RootCluster& c : clustering.clusters)
    stats.push_back(c.stats);
  const core::KktSolution kkt = core::SolveKkt(stats, root.stem);

  // Cluster membership of every invocation (the clusters partition the
  // timeline) and the full-trace ground truth per cluster.
  std::vector<uint32_t> cluster_of(trace.NumInvocations(), 0);
  std::vector<double> true_total_us(num_clusters, 0.0);
  for (size_t c = 0; c < num_clusters; ++c) {
    for (uint32_t idx : clustering.clusters[c].members) {
      cluster_of[idx] = static_cast<uint32_t>(c);
      true_total_us[c] += trace.At(idx).duration_us;
    }
  }
  const double true_workload_us = trace.TotalDurationUs();

  // One seeded plan per trial; trial r uses base_seed + r so audit trial r
  // reproduces evaluation rep r. BuildPlans builds them in one call (STEM
  // clusters once for all trials), and the index-ordered merge keeps the
  // result invariant to the thread count.
  const std::vector<core::SamplingPlan> plans =
      sampler.BuildPlans(trace, base_seed, trials);
  const std::vector<Trial> results =
      ParallelMap(trials, [&](size_t r) {
        trace_events::Scope trial_scope("audit.trial");
        Trial t;
        t.estimate_us.assign(num_clusters, 0.0);
        t.draws.assign(num_clusters, 0);
        for (const core::SampleEntry& entry : plans[r].entries) {
          const double contrib =
              entry.weight * trace.At(entry.invocation).duration_us;
          const uint32_t c = cluster_of[entry.invocation];
          t.estimate_us[c] += contrib;
          t.draws[c] += 1;
          t.total_estimate_us += contrib;
        }
        return t;
      });

  WorkloadAudit audit;
  audit.workload = trace.WorkloadName();
  audit.joint_predicted_error = kkt.theoretical_error;

  // Budget denominator: sum of the KKT variance terms over the clusters
  // that actually contribute estimation variance (sampled, not exhaustive
  // or degenerate).
  std::vector<double> variance_term(num_clusters, 0.0);
  double variance_sum = 0.0;
  for (size_t c = 0; c < num_clusters; ++c) {
    const uint64_t m = kkt.sample_sizes[c];
    if (m == 0 || m >= stats[c].n || stats[c].stddev <= 0.0) continue;
    const double big_n = static_cast<double>(stats[c].n);
    variance_term[c] = big_n * big_n * stats[c].stddev * stats[c].stddev /
                       static_cast<double>(m);
    variance_sum += variance_term[c];
  }

  audit.clusters.reserve(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    ClusterAuditRow row;
    row.kernel = trace.Type(clustering.kernel_ids[c]).name;
    row.cluster_id = static_cast<uint32_t>(c);
    row.population = stats[c].n;
    row.mean_us = stats[c].mean;
    row.cov = stats[c].Cov();
    row.m_allocated = kkt.sample_sizes[c];
    row.predicted_error =
        row.m_allocated > 0
            ? core::TheoreticalError(stats[c], row.m_allocated, root.stem)
            : 0.0;
    row.budget_share =
        variance_sum > 0.0 ? variance_term[c] / variance_sum : 0.0;

    uint64_t covered = 0;
    for (const Trial& t : results) {
      row.mean_draws += static_cast<double>(t.draws[c]);
      const double err =
          true_total_us[c] > 0.0
              ? (t.estimate_us[c] - true_total_us[c]) / true_total_us[c]
              : 0.0;
      row.mean_signed_error += err;
      row.mean_abs_error += std::abs(err);
      row.worst_abs_error = std::max(row.worst_abs_error, std::abs(err));
      if (std::abs(err) <= row.predicted_error + kTol) ++covered;
    }
    const double inv_trials = 1.0 / static_cast<double>(trials);
    row.mean_draws *= inv_trials;
    row.mean_signed_error *= inv_trials;
    row.mean_abs_error *= inv_trials;
    row.coverage = static_cast<double>(covered) * inv_trials;
    row.within_budget = row.mean_abs_error <= row.predicted_error + kTol;
    audit.clusters.push_back(std::move(row));
  }

  uint64_t total_covered = 0;
  for (const Trial& t : results) {
    const double err =
        true_workload_us > 0.0
            ? (t.total_estimate_us - true_workload_us) / true_workload_us
            : 0.0;
    audit.total_mean_abs_error += std::abs(err);
    if (std::abs(err) <= audit.joint_predicted_error + kTol) ++total_covered;
  }
  audit.total_mean_abs_error /= static_cast<double>(trials);
  audit.total_coverage =
      static_cast<double>(total_covered) / static_cast<double>(trials);
  return audit;
}

AuditReport AuditSuite(workloads::SuiteId suite, const core::Sampler& sampler,
                       const hw::GpuSpec& gpu, const AuditOptions& options) {
  AuditReport report;
  report.method = sampler.Name();
  report.epsilon = options.root.stem.epsilon;
  report.confidence = options.root.stem.confidence;
  report.trials = options.trials;
  report.seed = options.seed;

  // Same sampler seed stream the Pipeline uses for Sample/Evaluate, so
  // audit trial r sees exactly evaluation rep r's plan.
  const uint64_t base_seed =
      DeriveSeed(options.seed, HashString(sampler.Name()));

  const std::vector<std::string>& names =
      options.only_workloads.empty() ? workloads::SuiteWorkloads(suite)
                                     : options.only_workloads;
  for (const std::string& workload : names) {
    Pipeline pipeline = Pipeline::Generate(
        suite, workload,
        {.seed = options.seed, .size_scale = options.size_scale});
    pipeline.Profile(gpu);
    report.workloads.push_back(AuditWorkload(
        pipeline.Trace(), sampler, options.root, options.trials, base_seed));
  }
  return report;
}

std::string AuditReport::ToText(size_t max_rows) const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "Error-budget audit: method=%s epsilon=%.4g confidence=%.4g "
                "trials=%u seed=%llu\n",
                method.c_str(), epsilon, confidence, trials,
                static_cast<unsigned long long>(seed));
  out += line;

  for (const WorkloadAudit& w : workloads) {
    TextTable table({"Kernel", "Cl", "N", "MeanUs", "CoV", "m", "Draws",
                     "Pred%", "|Real|%", "Sign%", "Share%", "Cover", "OK"});
    std::snprintf(line, sizeof(line),
                  "%s: joint bound %.3f%%, realized total %.3f%%, total "
                  "coverage %.0f%%, %zu/%zu clusters within budget",
                  w.workload.c_str(), 100.0 * w.joint_predicted_error,
                  100.0 * w.total_mean_abs_error, 100.0 * w.total_coverage,
                  w.ClustersWithinBudget(), w.clusters.size());
    table.SetTitle(line);

    // Show the clusters that matter first: sort a copy by budget share.
    std::vector<const ClusterAuditRow*> rows;
    rows.reserve(w.clusters.size());
    for (const ClusterAuditRow& r : w.clusters) rows.push_back(&r);
    std::stable_sort(rows.begin(), rows.end(),
                     [](const ClusterAuditRow* a, const ClusterAuditRow* b) {
                       return a->budget_share > b->budget_share;
                     });
    const size_t shown =
        max_rows == 0 ? rows.size() : std::min(max_rows, rows.size());
    for (size_t i = 0; i < shown; ++i) {
      const ClusterAuditRow& r = *rows[i];
      table.AddRow({r.kernel, std::to_string(r.cluster_id),
                    std::to_string(r.population),
                    TextTable::Num(r.mean_us, 2), TextTable::Num(r.cov, 3),
                    std::to_string(r.m_allocated),
                    TextTable::Num(r.mean_draws, 1), Pct(r.predicted_error),
                    Pct(r.mean_abs_error), Pct(r.mean_signed_error),
                    Pct(r.budget_share),
                    TextTable::Num(100.0 * r.coverage, 0),
                    r.within_budget ? "yes" : "NO"});
    }
    out += table.Render();
    if (shown < rows.size()) {
      std::snprintf(line, sizeof(line), "  ... %zu more clusters\n",
                    rows.size() - shown);
      out += line;
    }
    out += "\n";
  }

  std::snprintf(line, sizeof(line),
                "Summary: %zu/%zu clusters within budget (%.1f%%), mean CI "
                "coverage %.1f%%\n",
                ClustersWithinBudget(), TotalClusters(),
                100.0 * WithinBudgetFraction(), 100.0 * MeanCoverage());
  out += line;
  return out;
}

std::string AuditReport::ToJson() const {
  using Wrap = json::Writer::Wrap;
  json::Writer w(json::Writer::Layout::kPretty);
  w.String("schema", "stemroot-audit-v1")
      .String("method", method)
      .Number("epsilon", epsilon)
      .Number("confidence", confidence)
      .Uint("trials", trials)
      .Uint("seed", seed)
      .Number("within_budget_fraction", WithinBudgetFraction())
      .Number("mean_coverage", MeanCoverage());
  w.Array("workloads", Wrap::kLines);
  for (const WorkloadAudit& audit : workloads) {
    w.Item(Wrap::kLines)
        .String("workload", audit.workload)
        .Number("joint_predicted_error", audit.joint_predicted_error)
        .Number("total_mean_abs_error", audit.total_mean_abs_error)
        .Number("total_coverage", audit.total_coverage);
    w.Array("clusters", Wrap::kLines);
    for (const ClusterAuditRow& r : audit.clusters)
      w.Item()
          .String("kernel", r.kernel)
          .Uint("cluster_id", r.cluster_id)
          .Uint("population", r.population)
          .Number("mean_us", r.mean_us)
          .Number("cov", r.cov)
          .Uint("m_allocated", r.m_allocated)
          .Number("mean_draws", r.mean_draws)
          .Number("predicted_error", r.predicted_error)
          .Number("mean_signed_error", r.mean_signed_error)
          .Number("mean_abs_error", r.mean_abs_error)
          .Number("worst_abs_error", r.worst_abs_error)
          .Number("budget_share", r.budget_share)
          .Number("coverage", r.coverage)
          .Bool("within_budget", r.within_budget)
          .End();
    w.End().End();
  }
  return w.Finish();
}

bool ValidateAuditJson(std::string_view text, std::string* error) {
  json::Value doc;
  std::string parse_error;
  if (!json::Parse(text, doc, &parse_error)) {
    if (error != nullptr) *error = "parse error: " + parse_error;
    return false;
  }
  try {
    const json::Reader root(doc, "top level");
    if (root.String("schema") != "stemroot-audit-v1")
      throw std::invalid_argument("schema is not \"stemroot-audit-v1\"");
    root.String("method");
    for (const char* key : {"epsilon", "confidence", "trials", "seed",
                            "within_budget_fraction", "mean_coverage"})
      root.Number(key);
    for (const json::Value& entry : root.Array("workloads")) {
      const std::string where =
          "workload '" +
          json::Reader(entry, "workload entry").String("workload") + "'";
      const json::Reader workload(entry, where);
      for (const char* key : {"joint_predicted_error", "total_mean_abs_error",
                              "total_coverage"})
        workload.Number(key);
      for (const json::Value& c : workload.Array("clusters")) {
        const json::Reader cluster(c, where + " cluster");
        cluster.String("kernel");
        for (const char* key :
             {"cluster_id", "population", "mean_us", "cov", "m_allocated",
              "mean_draws", "predicted_error", "mean_signed_error",
              "mean_abs_error", "worst_abs_error", "budget_share",
              "coverage"})
          cluster.Number(key);
        cluster.Bool("within_budget");
      }
    }
  } catch (const std::invalid_argument& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  return true;
}

}  // namespace stemroot::eval
