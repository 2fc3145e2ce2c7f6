/// \file
/// serve_sessions: the resident service under closed-loop load.
/// service::RunServer runs in-process on an AF_UNIX socket with its trace
/// cache warmed during set-up. Three client connections each run sessions
/// back to back, cycling through the 11 CASIO workloads (scale 1) in a
/// seeded order. A session repeats "feed 1000, then query" until the
/// service reports convergence or the trace is exhausted, then sends plan,
/// eval and close. The loop is closed because a profiling client waits for
/// each reply before deciding whether to stop. Sessions converge after
/// 2-3 feeds, so a 20 s phase completes >1000 feeds and >400 sessions:
/// enough for a p99 feed latency and a p90 session time.
///
/// Streaming ROOT runs here in small steps between queries (stream_ooc
/// uses bulk chunks), and batch ROOT runs on partial traces under 3-way
/// contention, so a change that helps one use and hurts the other shows.
///
/// Every session of one workload has the same configuration, so each must
/// reproduce the same plan/eval responses; the traced run replays one
/// session per workload through direct Service calls, which must match.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "eval/options.h"
#include "eval/trace_cache.h"
#include "harness.h"
#include "service/server.h"
#include "service/service.h"

namespace stemroot::bench {

namespace {

constexpr int kClients = 3;
constexpr uint64_t kFeedCount = 1000;
constexpr workloads::SuiteId kSuite = workloads::SuiteId::kCasio;

/// Client side of one line-protocol connection.
class Connection {
 public:
  explicit Connection(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("socket path too long: " + socket_path);
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error(std::string("socket: ") +
                                          std::strerror(errno));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      const int err = errno;
      ::close(fd_);
      throw std::runtime_error("connect " + socket_path + ": " +
                               std::strerror(err));
    }
  }
  ~Connection() { ::close(fd_); }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Send one request line and return the parsed reply. Throws
  /// std::runtime_error on a transport error or an unparsable reply.
  json::Value Request(const std::string& line) {
    const std::string out = line + "\n";
    for (size_t off = 0; off < out.size();) {
      const ssize_t n =
          ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0)
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      off += static_cast<size_t>(n);
    }
    size_t pos = 0;
    while ((pos = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("server closed the connection");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    const std::string reply = buffer_.substr(0, pos);
    buffer_.erase(0, pos + 1);
    json::Value value;
    std::string error;
    if (!json::Parse(reply, value, &error) || !value.IsObject())
      throw std::runtime_error("unparsable reply '" + reply + "': " + error);
    return value;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// service::RunServer on a background thread. Construction returns once
/// the server answers; destruction sends shutdown and joins. Clients must
/// close their connections first: the server drains them before it stops.
class InProcessServer {
 public:
  InProcessServer(const std::string& socket_path, const std::string& cache_dir,
                  int threads)
      : socket_path_(socket_path) {
    service::ServerOptions options;
    options.socket_path = socket_path;
    options.service.threads = threads;
    options.service.cache_dir = cache_dir;
    thread_ = std::thread([this, options] {
      try {
        service::RunServer(options);
      } catch (const std::exception& e) {
        error_ = e.what();
      }
      stopped_ = true;
    });
    while (true) {
      if (stopped_) {
        thread_.join();
        throw std::runtime_error("server failed to start: " + error_);
      }
      try {
        Connection probe(socket_path_);
        probe.Request(R"({"op":"health"})");
        return;
      } catch (const std::runtime_error&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }

  ~InProcessServer() {
    if (!stopped_) {
      try {
        Connection(socket_path_).Request(R"({"op":"shutdown"})");
      } catch (const std::exception& e) {
        std::fprintf(stderr, "server shutdown: %s\n", e.what());
      }
    }
    thread_.join();
  }

  InProcessServer(const InProcessServer&) = delete;
  InProcessServer& operator=(const InProcessServer&) = delete;

 private:
  const std::string socket_path_;
  std::string error_;  ///< written by thread_ before stopped_
  std::atomic<bool> stopped_{false};
  std::thread thread_;
};

struct Served {
  std::string socket_path;
  std::string cache_dir;
  std::map<std::string, double> source_total_us;  ///< per workload
  uint64_t invocations = 0;
  std::unique_ptr<InProcessServer> server;  ///< last: stops first
};

/// What one session returned, without timings.
struct SessionResult {
  std::string workload;
  double feeds = 0;
  double seen = 0;
  double total = 0;
  bool early_stop = false;
  std::string plan_method;
  double plan_samples = 0;
  double plan_distinct = 0;
  double plan_clusters = 0;
  double plan_error = 0;
  eval::EvalResult eval;
};

std::string DigestOf(const SessionResult& r) {
  return Digest()
      .Add(r.workload)
      .Add(r.feeds)
      .Add(r.seen)
      .Add(r.total)
      .Add(r.early_stop ? 1.0 : 0.0)
      .Add(r.plan_method)
      .Add(r.plan_samples)
      .Add(r.plan_distinct)
      .Add(r.plan_clusters)
      .Add(r.plan_error)
      .Add(r.eval.method)
      .Add(r.eval.workload)
      .Add(r.eval.speedup)
      .Add(r.eval.error_pct)
      .Add(r.eval.theoretical_error_pct)
      .Add(static_cast<double>(r.eval.num_samples))
      .Add(static_cast<double>(r.eval.num_clusters))
      .Add(r.eval.estimated_total_us)
      .Add(r.eval.true_total_us)
      .Hex();
}

double Num(const json::Value& v, std::string_view key) {
  const json::Value* f = v.Find(key);
  if (f == nullptr || (!f->IsNumber() && f->kind != json::Value::Kind::kBool))
    throw std::runtime_error("reply lacks '" + std::string(key) + "'");
  return f->number;
}

std::string Str(const json::Value& v, std::string_view key) {
  const json::Value* f = v.Find(key);
  if (f == nullptr || !f->IsString())
    throw std::runtime_error("reply lacks '" + std::string(key) + "'");
  return f->string;
}

/// Per-client timings of one phase.
struct ClientLog {
  std::vector<double> feed_query_s;  ///< a feed plus the query after it
  std::vector<double> session_s;     ///< open to close
  uint64_t requests = 0;
};

/// One session over the socket, client-observed.
SessionResult SocketSession(Connection& conn, Run& run,
                            const std::string& workload, uint64_t seed,
                            ClientLog& log) {
  const auto call = [&](const char* span_name, const std::string& line) {
    Span span(span_name);
    ++log.requests;
    json::Value reply = conn.Request(line);
    const json::Value* ok = reply.Find("ok");
    if (ok == nullptr || ok->number == 0.0) {
      const json::Value* error = reply.Find("error");
      throw std::runtime_error(workload + ": " + line + " -> " +
                               (error != nullptr ? error->string : "not ok"));
    }
    run.Attempt(true, "");
    return reply;
  };

  std::string open = R"({"op":"open","suite":"casio","method":"stem",)"
                     R"("order":"shuffled","seed":)" +
                     std::to_string(seed) + R"(,"workload":)";
  json::AppendString(open, workload);
  const std::string id = std::to_string(
      static_cast<uint64_t>(Num(call("service.open", open + "}"), "id")));

  SessionResult r;
  r.workload = workload;
  json::Value status;
  do {
    const Clock::time_point start = Clock::now();
    {
      Span span("service.feed_query");
      call("service.feed", R"({"op":"feed","count":)" +
                               std::to_string(kFeedCount) + R"(,"id":)" + id +
                               "}");
      status = call("service.query", R"({"op":"query","id":)" + id + "}");
    }
    log.feed_query_s.push_back(SecondsSince(start));
    ++r.feeds;
    r.seen = Num(status, "invocations_seen");
    r.total = Num(status, "invocations_total");
  } while (Num(status, "converged") == 0.0 && r.seen < r.total);
  r.early_stop = Num(status, "early_stop") != 0.0;

  const json::Value plan =
      call("service.plan", R"({"op":"plan","id":)" + id + "}");
  r.plan_method = Str(plan, "method");
  r.plan_samples = Num(plan, "num_samples");
  r.plan_distinct = Num(plan, "distinct_invocations");
  r.plan_clusters = Num(plan, "num_clusters");
  r.plan_error = Num(plan, "theoretical_error");

  const json::Value ev =
      call("service.eval", R"({"op":"eval","id":)" + id + "}");
  r.eval.method = Str(ev, "method");
  r.eval.workload = Str(ev, "workload");
  r.eval.speedup = Num(ev, "speedup");
  r.eval.error_pct = Num(ev, "error_pct");
  r.eval.theoretical_error_pct = Num(ev, "theoretical_error_pct");
  r.eval.num_samples = static_cast<size_t>(Num(ev, "num_samples"));
  r.eval.num_clusters = static_cast<size_t>(Num(ev, "num_clusters"));
  r.eval.estimated_total_us = Num(ev, "estimated_total_us");
  r.eval.true_total_us = Num(ev, "true_total_us");

  call("service.close", R"({"op":"close","id":)" + id + "}");
  return r;
}

/// The same session through direct Service calls (no socket, no JSON).
SessionResult DirectSession(service::Service& svc, const std::string& workload,
                            uint64_t seed) {
  service::SessionConfig config;
  config.suite = workloads::ToName(kSuite);
  config.workload = workload;
  config.seed = seed;
  config.order = service::FeedOrder::kShuffled;
  const service::SessionId id =
      Traced("service.direct.open", [&] { return svc.OpenSession(config); });

  SessionResult r;
  r.workload = workload;
  service::SessionStatus status;
  do {
    Span span("service.direct.feed_query");
    Traced("service.direct.feed",
           [&] { return svc.FeedFromSource(id, kFeedCount); });
    status = Traced("service.direct.query", [&] { return svc.Query(id); });
    ++r.feeds;
  } while (!status.converged &&
           status.invocations_seen < status.invocations_total);
  r.seen = static_cast<double>(status.invocations_seen);
  r.total = static_cast<double>(status.invocations_total);
  r.early_stop = status.early_stop;
  const core::SamplingPlan plan =
      Traced("service.direct.plan", [&] { return svc.BuildPlan(id); });
  r.plan_method = plan.method;
  r.plan_samples = static_cast<double>(plan.NumSamples());
  r.plan_distinct = static_cast<double>(plan.DistinctInvocations().size());
  r.plan_clusters = static_cast<double>(plan.num_clusters);
  r.plan_error = plan.theoretical_error;
  r.eval = Traced("service.direct.eval", [&] { return svc.Evaluate(id); });
  Traced("service.direct.close", [&] { return svc.CloseSession(id); });
  return r;
}

std::vector<std::string> SeededOrder(std::vector<std::string> names,
                                     uint64_t seed) {
  Rng rng(seed);
  for (size_t i = names.size() - 1; i > 0; --i)
    std::swap(names[i], names[rng.NextBounded(i + 1)]);
  return names;
}

double Ms(const std::vector<double>& seconds, double p) {
  return Pct(seconds, p) * 1e3;
}

}  // namespace

void RunServeSessions(Run& run) {
  const Config& cfg = run.Cfg();
  const uint64_t seed = cfg.seed;
  const std::vector<std::string>& names = workloads::SuiteWorkloads(kSuite);

  // Set-up: server start plus a warm trace cache, in a fresh directory
  // each time so every repetition does the same work. The previous
  // repetition's server has stopped by now.
  const Served served = run.Setup([&] {
    const std::string dir = cfg.work_dir + "/serve";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Served s;
    s.socket_path = dir + "/s.sock";
    s.cache_dir = dir + "/cache";
    s.server = Traced("service.RunServer", [&] {
      return std::make_unique<InProcessServer>(s.socket_path, s.cache_dir,
                                               cfg.threads);
    });
    // The server reads the process-wide trace cache; warm it here.
    eval::SetTraceCacheDir(s.cache_dir);
    for (const std::string& w : names) {
      const eval::Pipeline source = Traced("eval.GenerateProfiled", [&] {
        return eval::Pipeline::GenerateProfiled(
            {.suite = kSuite, .workload = w, .options = {.seed = seed}},
            eval::ResolveGpu("rtx2080"));
      });
      s.source_total_us[w] = source.Trace().TotalDurationUs();
      s.invocations += source.Trace().NumInvocations();
    }
    return s;
  });
  run.SetSizes("casio x11 scale 1, " + std::to_string(kClients) +
               " clients, feed " + std::to_string(kFeedCount) + ", " +
               std::to_string(served.invocations) + " invocations");

  // Warm-up: one session per workload, serially.
  if (!cfg.smoke) {
    ClientLog log;
    Connection conn(served.socket_path);
    for (const std::string& w : names)
      run.Check(w, DigestOf(SocketSession(conn, run, w, seed, log)));
  }

  std::atomic<uint64_t> errors{0};
  uint64_t traced_requests = 0;
  bool first_phase = true;
  run.Phases([&](double budget, std::vector<double>& session_s) {
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> clients;
    const Clock::time_point start = Clock::now();
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        try {
          Connection conn(served.socket_path);
          const std::vector<std::string> order =
              SeededOrder(names, DeriveSeed(seed, static_cast<uint64_t>(c)));
          for (uint64_t k = 0;; ++k) {
            const std::string& w = order[k % order.size()];
            Span span("service.session", (c + 1) * 1000000ull + k + 1);
            const Clock::time_point t0 = Clock::now();
            const SessionResult r = SocketSession(conn, run, w, seed, logs[c]);
            logs[c].session_s.push_back(SecondsSince(t0));
            run.Check(w, DigestOf(r));
            if (cfg.smoke || SecondsSince(start) >= budget) break;
          }
        } catch (const std::exception& e) {
          ++errors;
          run.Attempt(false, std::string("client: ") + e.what());
        }
      });
    for (std::thread& t : clients) t.join();
    const double elapsed = SecondsSince(start);

    std::vector<double> feed_query_s;
    uint64_t requests = 0;
    for (const ClientLog& log : logs) {
      session_s.insert(session_s.end(), log.session_s.begin(),
                       log.session_s.end());
      feed_query_s.insert(feed_query_s.end(), log.feed_query_s.begin(),
                          log.feed_query_s.end());
      requests += log.requests;
    }
    if (!first_phase) {
      traced_requests = requests;
      return;
    }
    first_phase = false;
    run.Set("feed_p50_ms", Ms(feed_query_s, 50));
    run.Set("feed_p99_ms", Ms(feed_query_s, 99));
    run.Set("feed_samples", static_cast<double>(feed_query_s.size()));
    run.Set("session_p90_s", Pct(session_s, 90));
    run.Set("sessions_per_s", session_s.size() / elapsed);
  });

  // Socket requests become direct Service calls, one session per workload.
  std::vector<SessionResult> direct;
  run.Decompose([&] {
    service::ServiceOptions options;
    options.threads = cfg.threads;
    options.cache_dir = served.cache_dir;
    service::Service svc(options);
    for (const std::string& w : names) {
      direct.push_back(DirectSession(svc, w, seed));
      run.Check(w, DigestOf(direct.back()));
    }
  });
  if (!cfg.trace) return;

  Tracer& tracer = Tracer::Get();
  const auto ms50 = [&](const char* span) {
    return Ms(tracer.Durations(span), 50);
  };
  run.Set("workloads.invocations", static_cast<double>(served.invocations));
  run.Set("service.open_ms_p50", ms50("service.open"));
  run.Set("service.feed_ms_p50", ms50("service.feed"));
  run.Set("service.plan_ms_p50", ms50("service.plan"));
  run.Set("service.eval_ms_p50", ms50("service.eval"));
  run.Set("service.close_ms_p50", ms50("service.close"));
  run.Set("service.feed_ms_p99", Ms(tracer.Durations("service.feed"), 99));
  run.Set("service.query_us_p50", ms50("service.query") * 1e3);
  run.Set("service.transport_ms_p50",
          ms50("service.feed_query") - ms50("service.direct.feed_query"));
  run.Set("service.requests", static_cast<double>(traced_requests));
  run.Set("service.errors", static_cast<double>(errors.load()));

  // Accuracy of what a client gets when it stops early: the session's STEM
  // estimate, extrapolated from the fed share, against the source trace.
  double seen = 0.0;
  double total = 0.0;
  size_t early = 0;
  size_t within = 0;
  std::vector<double> errors_pct;
  std::vector<double> speedups;
  for (const SessionResult& r : direct) {
    const double truth = served.source_total_us.at(r.workload);
    const double estimate = r.eval.estimated_total_us * r.total / r.seen;
    const double error = std::abs(estimate - truth) / truth * 100.0;
    seen += r.seen;
    total += r.total;
    early += r.early_stop;
    within += error <= kEpsilonPct;
    errors_pct.push_back(error);
    speedups.push_back(truth / (r.eval.true_total_us / r.eval.speedup));
  }
  run.Set("service.fed_frac", seen / total);
  run.Set("service.early_stop_frac",
          static_cast<double>(early) / direct.size());
  run.Set("eval.error_pct", Mean(errors_pct));
  run.Set("eval.speedup_x", HarmonicMean(speedups));
  run.Set("eval.within_eps_frac", static_cast<double>(within) / direct.size());
}

}  // namespace stemroot::bench
