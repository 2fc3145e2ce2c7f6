/// \file
/// Line-delimited JSON protocol over stemroot::service::Service — the
/// wire form of the typed session API, used by `stemroot serve` /
/// `stemroot session` and scriptable clients.
///
/// One request per line, one response per line. Every response is a JSON
/// object with an "ok" bool: {"ok":true,...} on success,
/// {"ok":false,"error":"..."} on failure. HandleLine never throws — a
/// malformed line, unknown op, or Service exception becomes an error
/// response, and the connection stays usable.
///
/// Requests are read through json::Reader and replies written through
/// json::Writer (common/json.h).
///
/// Ops (the "op" member selects; numbers where noted, strings otherwise):
///
///   open     method, suite, workload, gpu, epsilon, confidence, seed,
///            scale, reps, min_invocations, order ("timeline"|"shuffled"),
///            params (object of sampler parameters)
///            -> {"ok":true,"id":N}
///   feed     id, count      -> {"ok":true,"fed":N,"seen":N,
///            "converged":B,"early_stop":B} (counted as a feed only)
///   query    id [, clusters:true]
///            -> the SessionStatus fields (+ a "clusters" array on request)
///   plan     id             -> plan summary (num_samples, ...)
///   eval     id             -> the EvalResult fields
///   close    id [, manifest:path] [, ledger:path]
///            -> {"ok":true,"closed":N}; writes/appends the session
///            manifest when paths are given
///   stats                   -> the full introspection view: open/max
///            sessions, uptime_seconds, lifetime tallies
///            (sessions_opened/closed, feed_invocations, early_stops,
///            requests, errors), a "verbs" object with per-verb
///            requests/errors and latency aggregates
///            (total/mean/p50/p90/p99/max, microseconds), a
///            "journal" object with emitted/dropped/errors counts, and a
///            "mem" object (rss/hwm bytes, samples, cpu seconds, the
///            logical per-category peaks)
///   health                  -> {"ok":true,"status":"ok","ready":true,
///            "accepting":B,"uptime_seconds":S,"open_sessions":N,
///            "max_sessions":N,"git_hash":"..."} — a cheap liveness
///            probe that never touches session state, request counters
///            or /proc
///   shutdown                -> {"ok":true,"shutdown":true} and flags the
///            server loop to stop
///
/// Sessions are always source-fed: open names a suite and workload, and
/// the service generates + profiles the source trace server-side.

#pragma once

#include <string>

#include "service/service.h"

namespace stemroot::service {

/// Result of handling one request line.
struct BrokerResult {
  std::string response;   ///< one JSON object, no trailing newline
  bool ok = false;        ///< mirrors the response's "ok"
  bool shutdown = false;  ///< the line was a successful shutdown request
};

/// Stateless translator from protocol lines to Service calls. Thread
/// compatibility follows Service: concurrent HandleLine calls are safe.
class SessionBroker {
 public:
  explicit SessionBroker(Service& service) : service_(service) {}

  BrokerResult HandleLine(const std::string& line);

 private:
  Service& service_;
};

}  // namespace stemroot::service
