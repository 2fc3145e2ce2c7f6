/// \file
/// Interleaved-session stress: many client threads driving one resident
/// Service concurrently, including several threads tearing at the SAME
/// session. Run under TSan (tools/check.sh tsan) this is the data-race
/// gate for the service layer; under any sanitizer it checks the
/// invariants that survive arbitrary interleavings (counts conserved,
/// every session closeable exactly once, ids never reused).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/telemetry.h"
#include "service/protocol.h"
#include "service/service.h"

namespace stemroot::service {
namespace {

ServiceOptions Limited(uint32_t max_sessions) {
  ServiceOptions options;
  options.max_sessions = max_sessions;
  return options;
}

SessionConfig TinyConfig(uint64_t seed) {
  SessionConfig config;
  config.suite = "casio";
  config.workload = "bert_infer";
  config.scale = 0.05;
  config.seed = seed;
  config.reps = 2;
  config.order = FeedOrder::kShuffled;
  return config;
}

TEST(ServiceStressTest, ParallelIndependentSessions) {
  Service service(Limited(16));
  constexpr int kThreads = 8;
  std::atomic<uint64_t> total_fed{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &total_fed, t] {
      const SessionId id = service.OpenSession(TinyConfig(100 + t));
      uint64_t fed = 0;
      uint64_t n = 0;
      while ((n = service.FeedFromSource(id, 17)) > 0) {
        fed += n;
        const SessionStatus status = service.Query(id);
        EXPECT_EQ(status.invocations_seen, fed);
      }
      EXPECT_FALSE(service.BuildPlan(id).entries.empty());
      const eval::RunManifest manifest = service.CloseSession(id);
      EXPECT_EQ(manifest.counters.at("service.feed_invocations"), fed);
      total_fed.fetch_add(fed);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(service.NumOpenSessions(), 0u);
  EXPECT_GT(total_fed.load(), 0u);
}

TEST(ServiceStressTest, TornFeedsOnOneSession) {
  // Several threads feed and query the SAME session; chunk boundaries and
  // query interleavings are arbitrary, but the total must be conserved
  // and every intermediate Query must see internally consistent state.
  Service service;
  const SessionId id = service.OpenSession(TinyConfig(7));
  const uint64_t total = service.Query(id).invocations_total;
  ASSERT_GT(total, 0u);

  constexpr int kThreads = 4;
  std::atomic<uint64_t> fed{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &fed, id, t] {
      uint64_t n = 0;
      while ((n = service.FeedFromSource(id, 5 + t)) > 0) {
        fed.fetch_add(n);
        const SessionStatus status = service.Query(id);
        uint64_t cluster_n = 0;
        for (const ClusterSummary& c : status.clusters) cluster_n += c.n;
        EXPECT_EQ(cluster_n, status.invocations_seen);
        EXPECT_LE(status.invocations_seen, status.invocations_total);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(fed.load(), total);
  const SessionStatus status = service.Query(id);
  EXPECT_EQ(status.invocations_seen, total);
  service.CloseSession(id);
}

TEST(ServiceStressTest, ConcurrentBrokersShareOneService) {
  // The protocol layer on top: concurrent brokers (one per simulated
  // connection) multiplex onto one Service, as `stemroot serve` does with
  // its thread-per-connection model.
  Service service(Limited(8));
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&service, t] {
      SessionBroker broker(service);
      const BrokerResult opened = broker.HandleLine(
          R"({"op":"open","suite":"casio","workload":"bert_infer",)"
          R"("scale":0.05,"seed":)" +
          std::to_string(300 + t) + "}");
      ASSERT_TRUE(opened.ok) << opened.response;
      json::Value open_response;
      ASSERT_TRUE(json::Parse(opened.response, open_response, nullptr));
      const std::string sid = std::to_string(
          static_cast<uint64_t>(open_response.Find("id")->number));
      for (int round = 0; round < 6; ++round) {
        EXPECT_TRUE(
            broker
                .HandleLine(R"({"op":"feed","id":)" + sid +
                            R"(,"count":23})")
                .ok);
        EXPECT_TRUE(
            broker.HandleLine(R"({"op":"query","id":)" + sid + "}").ok);
      }
      EXPECT_TRUE(
          broker.HandleLine(R"({"op":"close","id":)" + sid + "}").ok);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(service.NumOpenSessions(), 0u);
}

/// What a session's close manifest records deterministically: every
/// counter, and each stage's name and call count (wall times vary).
struct ManifestFacts {
  std::map<std::string, uint64_t> counters;
  std::vector<std::pair<std::string, uint64_t>> stages;

  explicit ManifestFacts(const eval::RunManifest& manifest)
      : counters(manifest.counters) {
    for (const eval::RunManifest::Stage& stage : manifest.stages)
      stages.emplace_back(stage.name, stage.count);
  }
};

/// Session A: a full timeline feed, then Evaluate (a long telemetry
/// window). Signals `feeding_done` just before evaluating.
eval::RunManifest RunEvaluatingSession(Service& service,
                                       std::atomic<bool>* feeding_done) {
  SessionConfig config = TinyConfig(41);
  config.order = FeedOrder::kTimeline;
  const SessionId id = service.OpenSession(config);
  while (service.FeedFromSource(id, 1u << 30) > 0) {
  }
  if (feeding_done != nullptr) feeding_done->store(true);
  service.Evaluate(id);
  return service.CloseSession(id);
}

/// Session B: small shuffled feeds, each followed by a Query -- streaming
/// ROOT and the query's KKT solve both run outside any window.
eval::RunManifest RunFeedingSession(Service& service,
                                    const std::atomic<bool>* start) {
  SessionConfig config = TinyConfig(43);
  config.scale = 0.2;
  const SessionId id = service.OpenSession(config);
  if (start != nullptr)
    while (!start->load()) std::this_thread::yield();
  while (service.FeedFromSource(id, 16) > 0) service.Query(id);
  return service.CloseSession(id);
}

TEST(ServiceStressTest, ConcurrentSessionManifestsMatchSequential) {
  // A session's close manifest holds the counters of its own telemetry
  // windows. Another session feeding and querying while one window is
  // open must not leak its k-means/KKT counters into it: run side by
  // side, each manifest equals the one it has when run alone.
  telemetry::SetEnabled(true);
  telemetry::Reset();
  Service sequential;
  const ManifestFacts alone_a(RunEvaluatingSession(sequential, nullptr));
  const ManifestFacts alone_b(RunFeedingSession(sequential, nullptr));
  EXPECT_GT(alone_a.counters.count("core.kmeans.runs"), 0u);

  Service concurrent;
  std::atomic<bool> feeding_done{false};
  std::optional<eval::RunManifest> together_b;
  std::thread feeder([&] {
    together_b = RunFeedingSession(concurrent, &feeding_done);
  });
  const ManifestFacts together_a(
      RunEvaluatingSession(concurrent, &feeding_done));
  feeder.join();
  telemetry::SetEnabled(false);
  telemetry::Reset();

  ASSERT_TRUE(together_b.has_value());
  EXPECT_EQ(together_a.counters, alone_a.counters);
  EXPECT_EQ(together_a.stages, alone_a.stages);
  const ManifestFacts b(*together_b);
  EXPECT_EQ(b.counters, alone_b.counters);
  EXPECT_EQ(b.stages, alone_b.stages);
}

}  // namespace
}  // namespace stemroot::service
