#include "service/protocol.h"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/build_info.h"
#include "common/json.h"
#include "eval/ledger.h"

namespace stemroot::service {

namespace {

BrokerResult Error(const std::string& message) {
  return {json::Writer().Bool("ok", false).String("error", message).Finish(),
          false, false};
}

/// A success reply: `ok` first, then the members `w` adds.
json::Writer Reply() {
  json::Writer w;
  w.Bool("ok", true);
  return w;
}

BrokerResult Success(json::Writer& w, bool shutdown = false) {
  return {w.Finish(), true, shutdown};
}

/// Any id that is no whole number >= 1 gets the one message.
SessionId RequireId(const json::Reader& in) {
  try {
    if (const uint64_t id = in.UintOr("id", 0); id >= 1) return id;
  } catch (const std::invalid_argument&) {
  }
  throw std::invalid_argument("protocol: request needs a session 'id'");
}

SessionConfig ConfigFromRequest(const json::Reader& in) {
  SessionConfig config;
  config.method = in.StringOr("method", config.method);
  config.suite = in.StringOr("suite", config.suite);
  config.workload = in.StringOr("workload", config.workload);
  config.gpu = in.StringOr("gpu", config.gpu);
  config.epsilon = in.FiniteOr("epsilon", config.epsilon);
  config.confidence = in.FiniteOr("confidence", config.confidence);
  config.seed = in.Uint64Or("seed", config.seed);
  config.scale = in.FiniteOr("scale", config.scale);
  const uint64_t reps = in.UintOr("reps", config.reps);
  if (reps > UINT32_MAX)
    throw std::invalid_argument("protocol: 'reps' must be <= 2^32 - 1");
  config.reps = static_cast<uint32_t>(reps);
  config.min_invocations =
      in.UintOr("min_invocations", config.min_invocations);
  const std::string order = in.StringOr("order", "timeline");
  if (order == "timeline") {
    config.order = FeedOrder::kTimeline;
  } else if (order == "shuffled") {
    config.order = FeedOrder::kShuffled;
  } else {
    throw std::invalid_argument(
        "protocol: 'order' must be \"timeline\" or \"shuffled\"");
  }
  if (in.Has("params")) {
    for (const auto& [key, value] : in.Object("params").Members()) {
      if (value.IsString()) {
        config.params.Set(key, value.string);
      } else if (value.IsNumber()) {
        config.params.Set(key, value.number);
      } else if (value.kind == json::Value::Kind::kBool) {
        config.params.Set(key, value.number != 0.0);
      } else {
        throw std::invalid_argument("protocol: parameter '" + key +
                                    "' must be a string, number, or bool");
      }
    }
  }
  return config;
}

void AppendStatus(json::Writer& w, const SessionStatus& status,
                  bool with_clusters) {
  w.Uint("invocations_seen", status.invocations_seen)
      .Uint("invocations_total", status.invocations_total)
      .Number("seen_total_us", status.seen_total_us)
      .Uint("num_kernels", status.num_kernels)
      .Uint("num_clusters", status.clusters.size())
      .Uint("splits", status.splits)
      .Uint("merges", status.merges)
      .Uint("stem_samples_total", status.stem_samples_total)
      .Number("stem_cost_us", status.stem_cost_us)
      .Number("allocation_error", status.allocation_error)
      .Number("predicted_error", status.predicted_error)
      .Bool("converged", status.converged)
      .Bool("early_stop", status.early_stop)
      .Number("estimated_total_us", status.estimated_total_us);
  if (!with_clusters) return;
  w.Array("clusters");
  for (const ClusterSummary& c : status.clusters)
    w.Item()
        .String("kernel", c.kernel)
        .Uint("kernel_id", c.kernel_id)
        .Uint("n", c.n)
        .Number("mean_us", c.mean_us)
        .Number("stddev_us", c.stddev_us)
        .Uint("stem_samples", c.stem_samples)
        .End();
  w.End();
}

}  // namespace

BrokerResult SessionBroker::HandleLine(const std::string& line) {
  json::Value req;
  std::string parse_error;
  if (!json::Parse(line, req, &parse_error))
    return Error("protocol: bad request: " + parse_error);
  if (!req.IsObject()) return Error("protocol: request must be an object");

  try {
    const json::Reader in(req, "protocol");
    const std::string op = in.StringOr("op", "");
    if (op.empty()) return Error("protocol: request needs an 'op'");

    if (op == "open") {
      const SessionId id = service_.OpenSession(ConfigFromRequest(in));
      json::Writer w = Reply();
      w.Uint("id", id);
      return Success(w);
    }
    if (op == "feed") {
      const SessionId id = RequireId(in);
      const uint64_t count = in.UintOr("count", 0);
      if (count == 0)
        throw std::invalid_argument("protocol: feed needs a 'count' >= 1");
      SessionStatus status;
      const uint64_t fed = service_.FeedFromSource(id, count, &status);
      json::Writer w = Reply();
      w.Uint("fed", fed)
          .Uint("seen", status.invocations_seen)
          .Bool("converged", status.converged)
          .Bool("early_stop", status.early_stop);
      return Success(w);
    }
    if (op == "query") {
      const SessionStatus status = service_.Query(RequireId(in));
      json::Writer w = Reply();
      AppendStatus(w, status, in.BoolOr("clusters", false));
      return Success(w);
    }
    if (op == "plan") {
      const core::SamplingPlan plan = service_.BuildPlan(RequireId(in));
      json::Writer w = Reply();
      w.String("method", plan.method)
          .Uint("num_samples", plan.NumSamples())
          .Uint("distinct_invocations", plan.DistinctInvocations().size())
          .Uint("num_clusters", plan.num_clusters)
          .Number("theoretical_error", plan.theoretical_error);
      return Success(w);
    }
    if (op == "eval") {
      const eval::EvalResult result = service_.Evaluate(RequireId(in));
      json::Writer w = Reply();
      w.String("method", result.method)
          .String("workload", result.workload)
          .Number("speedup", result.speedup)
          .Number("error_pct", result.error_pct)
          .Number("theoretical_error_pct", result.theoretical_error_pct)
          .Uint("num_samples", result.num_samples)
          .Uint("num_clusters", result.num_clusters)
          .Number("estimated_total_us", result.estimated_total_us)
          .Number("true_total_us", result.true_total_us);
      return Success(w);
    }
    if (op == "close") {
      const SessionId id = RequireId(in);
      const std::string manifest_path = in.StringOr("manifest", "");
      const std::string ledger_path = in.StringOr("ledger", "");
      const eval::RunManifest manifest = service_.CloseSession(id);
      if (!manifest_path.empty()) manifest.Save(manifest_path);
      if (!ledger_path.empty()) eval::Ledger::Append(manifest, ledger_path);
      json::Writer w = Reply();
      w.Uint("closed", id).Bool("manifest_written", !manifest_path.empty());
      return Success(w);
    }
    if (op == "stats") {
      const ServiceStats stats = service_.GetStats();
      json::Writer w = Reply();
      w.Uint("open_sessions", stats.open_sessions)
          .Uint("max_sessions", stats.max_sessions)
          .Number("uptime_seconds", stats.uptime_seconds)
          .Bool("metrics_enabled", true)  // kept for older stats clients
          .Uint("sessions_opened", stats.sessions_opened)
          .Uint("sessions_closed", stats.sessions_closed)
          .Uint("feed_invocations", stats.feed_invocations)
          .Uint("early_stops", stats.early_stops)
          .Uint("requests", stats.requests_total)
          .Uint("errors", stats.errors_total);
      w.Object("verbs");
      for (const VerbStats& v : stats.verbs)
        w.Object(v.verb)
            .Uint("requests", v.requests)
            .Uint("errors", v.errors)
            .Number("total_us", v.total_us)
            .Number("mean_us", v.mean_us)
            .Number("p50_us", v.p50_us)
            .Number("p90_us", v.p90_us)
            .Number("p99_us", v.p99_us)
            .Number("max_us", v.max_us)
            .End();
      w.End();
      w.Object("journal")
          .Uint("emitted", stats.journal_emitted)
          .Uint("dropped", stats.journal_dropped)
          .Uint("errors", stats.journal_errors)
          .End();
      w.Object("mem")
          .Uint("rss_bytes", stats.process_rss_bytes)
          .Uint("hwm_bytes", stats.process_hwm_bytes)
          .Uint("samples", stats.resource_samples)
          .Number("cpu_user_seconds", stats.process_cpu_user_seconds)
          .Number("cpu_system_seconds", stats.process_cpu_system_seconds)
          .Object("logical");
      for (const auto& [category, bytes] : stats.mem_logical)
        w.Uint(category, bytes);
      w.End().End();
      return Success(w);
    }
    if (op == "health") {
      const size_t open_sessions = service_.NumOpenSessions();
      const uint32_t max_sessions = service_.MaxSessions();
      json::Writer w = Reply();
      w.String("status", "ok")
          .Bool("ready", true)
          .Bool("accepting", open_sessions < max_sessions)
          .Number("uptime_seconds", service_.UptimeSeconds())
          .Uint("open_sessions", open_sessions)
          .Uint("max_sessions", max_sessions)
          .String("git_hash", GetBuildInfo().git_hash);
      return Success(w);
    }
    if (op == "shutdown") {
      json::Writer w = Reply();
      w.Bool("shutdown", true);
      return Success(w, /*shutdown=*/true);
    }
    return Error("protocol: unknown op '" + op + "'");
  } catch (const std::exception& e) {
    return Error(e.what());
  }
}

}  // namespace stemroot::service
