#include "service/protocol.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "eval/manifest.h"

namespace stemroot::service {
namespace {

/// Parse a broker response (every response must be valid JSON).
json::Value Parsed(const BrokerResult& result) {
  json::Value value;
  std::string error;
  EXPECT_TRUE(json::Parse(result.response, value, &error)) << error;
  return value;
}

bool Ok(const json::Value& response) {
  const json::Value* ok = response.Find("ok");
  return ok != nullptr && ok->number != 0.0;
}

double Num(const json::Value& response, std::string_view key) {
  const json::Value* v = response.Find(key);
  EXPECT_NE(v, nullptr) << key;
  return v == nullptr ? 0.0 : v->number;
}

class ProtocolTest : public ::testing::Test {
 protected:
  Service service_;
  SessionBroker broker_{service_};

  BrokerResult Handle(const std::string& line) {
    return broker_.HandleLine(line);
  }

  /// Open a tiny session and return its id.
  SessionId Open() {
    const BrokerResult result = Handle(
        R"({"op":"open","suite":"casio","workload":"bert_infer",)"
        R"("scale":0.05,"seed":99,"reps":2,"order":"shuffled"})");
    EXPECT_TRUE(result.ok) << result.response;
    return static_cast<SessionId>(Num(Parsed(result), "id"));
  }
};

TEST_F(ProtocolTest, RejectsMalformedLines) {
  EXPECT_FALSE(Handle("not json").ok);
  EXPECT_FALSE(Handle("[1,2,3]").ok);
  EXPECT_FALSE(Handle(R"({"no_op":true})").ok);
  EXPECT_FALSE(Handle(R"({"op":"florble"})").ok);
  const json::Value response = Parsed(Handle(R"({"op":"florble"})"));
  EXPECT_FALSE(Ok(response));
  EXPECT_NE(response.Find("error"), nullptr);
}

TEST_F(ProtocolTest, OpenValidatesRequests) {
  // Sessions are source-fed: suite+workload are mandatory.
  EXPECT_FALSE(Handle(R"({"op":"open"})").ok);
  EXPECT_FALSE(Handle(R"({"op":"open","suite":"casio"})").ok);
  EXPECT_FALSE(
      Handle(R"({"op":"open","suite":"casio","workload":"bert_infer",)"
             R"("order":"sideways"})")
          .ok);
  EXPECT_FALSE(
      Handle(R"({"op":"open","suite":"casio","workload":"bert_infer",)"
             R"("epsilon":"tight"})")
          .ok);
  EXPECT_FALSE(
      Handle(R"({"op":"open","suite":"nope","workload":"bert_infer"})").ok);
  EXPECT_EQ(service_.NumOpenSessions(), 0u);
}

TEST_F(ProtocolTest, SessionRoundTrip) {
  const SessionId id = Open();
  EXPECT_EQ(service_.NumOpenSessions(), 1u);
  const std::string sid = std::to_string(id);

  // feed advances the session and reports convergence state.
  const json::Value fed = Parsed(
      Handle(R"({"op":"feed","id":)" + sid + R"(,"count":64})"));
  EXPECT_TRUE(Ok(fed));
  EXPECT_EQ(Num(fed, "fed"), 64.0);
  EXPECT_EQ(Num(fed, "seen"), 64.0);

  const json::Value status = Parsed(
      Handle(R"({"op":"query","id":)" + sid + R"(,"clusters":true})"));
  EXPECT_TRUE(Ok(status));
  EXPECT_EQ(Num(status, "invocations_seen"), 64.0);
  EXPECT_GT(Num(status, "invocations_total"), 64.0);
  EXPECT_GT(Num(status, "predicted_error"), 0.0);
  const json::Value* clusters = status.Find("clusters");
  ASSERT_NE(clusters, nullptr);
  ASSERT_TRUE(clusters->IsArray());
  EXPECT_FALSE(clusters->array->empty());
  EXPECT_NE(clusters->array->front().Find("kernel"), nullptr);

  const json::Value plan =
      Parsed(Handle(R"({"op":"plan","id":)" + sid + "}"));
  EXPECT_TRUE(Ok(plan));
  EXPECT_GT(Num(plan, "num_samples"), 0.0);

  const json::Value eval =
      Parsed(Handle(R"({"op":"eval","id":)" + sid + "}"));
  EXPECT_TRUE(Ok(eval));
  EXPECT_GT(Num(eval, "speedup"), 0.0);

  const json::Value stats = Parsed(Handle(R"({"op":"stats"})"));
  EXPECT_TRUE(Ok(stats));
  EXPECT_EQ(Num(stats, "open_sessions"), 1.0);

  const std::filesystem::path manifest_path =
      std::filesystem::temp_directory_path() /
      ("sr_protocol_manifest_" + sid + ".json");
  std::string close = R"({"op":"close","id":)" + sid + R"(,"manifest":)";
  json::AppendString(close, manifest_path.string());
  close += "}";
  const json::Value closed = Parsed(Handle(close));
  EXPECT_TRUE(Ok(closed));
  EXPECT_EQ(service_.NumOpenSessions(), 0u);

  // The written manifest round-trips as a stemroot-manifest-v1 document.
  const eval::RunManifest manifest =
      eval::RunManifest::Load(manifest_path.string());
  EXPECT_EQ(manifest.command, "session");
  EXPECT_TRUE(manifest.completed);
  EXPECT_EQ(manifest.config.workload, "bert_infer");
  EXPECT_EQ(manifest.counters.at("service.feed_invocations"), 64u);
  std::filesystem::remove(manifest_path);

  // The closed id is dead, and the broker reports that as an error
  // response rather than a dropped connection.
  EXPECT_FALSE(Handle(R"({"op":"query","id":)" + sid + "}").ok);
}

TEST_F(ProtocolTest, FeedValidatesArguments) {
  const SessionId id = Open();
  const std::string sid = std::to_string(id);
  EXPECT_FALSE(Handle(R"({"op":"feed"})").ok);
  EXPECT_FALSE(Handle(R"({"op":"feed","id":)" + sid + "}").ok);
  EXPECT_FALSE(
      Handle(R"({"op":"feed","id":)" + sid + R"(,"count":-3})").ok);
  EXPECT_FALSE(Handle(R"({"op":"feed","id":999,"count":4})").ok);
  Handle(R"({"op":"close","id":)" + sid + "}");
}

TEST_F(ProtocolTest, ParamsForwardToTheSampler) {
  const BrokerResult result = Handle(
      R"({"op":"open","method":"random","suite":"casio",)"
      R"("workload":"bert_infer","scale":0.05,)"
      R"("params":{"probability":0.25}})");
  ASSERT_TRUE(result.ok) << result.response;
  const std::string sid =
      std::to_string(static_cast<SessionId>(Num(Parsed(result), "id")));
  Handle(R"({"op":"feed","id":)" + sid + R"(,"count":200})");
  const json::Value plan =
      Parsed(Handle(R"({"op":"plan","id":)" + sid + "}"));
  EXPECT_TRUE(Ok(plan));
  // The plan's method is the sampler's resolved name, which embeds the
  // probability the params carried over the wire.
  EXPECT_EQ(plan.Find("method")->string, "Random(25%)");
  Handle(R"({"op":"close","id":)" + sid + "}");
}

TEST(ProtocolMetricsTest, StatsReportsVerbLatenciesAndJournal) {
  Service service;
  SessionBroker broker(service);
  const auto Handle = [&broker](const std::string& line) {
    return broker.HandleLine(line);
  };

  const BrokerResult opened = Handle(
      R"({"op":"open","suite":"casio","workload":"bert_infer",)"
      R"("scale":0.05,"seed":99,"reps":2,"order":"shuffled"})");
  ASSERT_TRUE(opened.ok) << opened.response;
  const std::string sid =
      std::to_string(static_cast<SessionId>(Num(Parsed(opened), "id")));
  Handle(R"({"op":"feed","id":)" + sid + R"(,"count":32})");
  Handle(R"({"op":"query","id":)" + sid + "}");

  const json::Value stats = Parsed(Handle(R"({"op":"stats"})"));
  EXPECT_TRUE(Ok(stats));
  EXPECT_EQ(Num(stats, "open_sessions"), 1.0);
  EXPECT_GE(Num(stats, "uptime_seconds"), 0.0);
  EXPECT_EQ(Num(stats, "sessions_opened"), 1.0);
  EXPECT_EQ(Num(stats, "sessions_closed"), 0.0);
  EXPECT_EQ(Num(stats, "feed_invocations"), 32.0);
  // open + feed + query: a feed's reply reads the session's progress
  // without counting as a query.
  EXPECT_EQ(Num(stats, "requests"), 3.0);

  // Per-verb breakdown: the verbs object carries a latency summary for
  // every verb; the ones exercised here show traffic.
  const json::Value* verbs = stats.Find("verbs");
  ASSERT_NE(verbs, nullptr);
  ASSERT_TRUE(verbs->IsObject());
  const json::Value* feed = verbs->Find("feed");
  ASSERT_NE(feed, nullptr);
  EXPECT_EQ(Num(*feed, "requests"), 1.0);
  EXPECT_EQ(Num(*feed, "errors"), 0.0);
  EXPECT_GT(Num(*feed, "mean_us"), 0.0);
  EXPECT_GT(Num(*feed, "p50_us"), 0.0);
  EXPECT_GE(Num(*feed, "p99_us"), Num(*feed, "p50_us"));
  EXPECT_GT(Num(*feed, "max_us"), 0.0);
  const json::Value* query = verbs->Find("query");
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(Num(*query, "requests"), 1.0);
  const json::Value* close_verb = verbs->Find("close");
  ASSERT_NE(close_verb, nullptr);
  EXPECT_EQ(Num(*close_verb, "requests"), 0.0);

  // Journal counters are always present (zeros with no journal open).
  const json::Value* journal = stats.Find("journal");
  ASSERT_NE(journal, nullptr);
  ASSERT_TRUE(journal->IsObject());
  EXPECT_NE(journal->Find("emitted"), nullptr);
  EXPECT_NE(journal->Find("dropped"), nullptr);
  EXPECT_NE(journal->Find("errors"), nullptr);

  // Errors count into the verb's error column but still measure latency.
  EXPECT_FALSE(Handle(R"({"op":"feed","id":999,"count":4})").ok);
  const json::Value after = Parsed(Handle(R"({"op":"stats"})"));
  const json::Value* feed_after = after.Find("verbs")->Find("feed");
  EXPECT_EQ(Num(*feed_after, "requests"), 2.0);
  EXPECT_EQ(Num(*feed_after, "errors"), 1.0);

  Handle(R"({"op":"close","id":)" + sid + "}");
}

TEST_F(ProtocolTest, HealthReportsReadiness) {
  const json::Value health = Parsed(Handle(R"({"op":"health"})"));
  EXPECT_TRUE(Ok(health));
  ASSERT_NE(health.Find("status"), nullptr);
  EXPECT_EQ(health.Find("status")->string, "ok");
  EXPECT_EQ(Num(health, "ready"), 1.0);
  EXPECT_EQ(Num(health, "accepting"), 1.0);
  EXPECT_GE(Num(health, "uptime_seconds"), 0.0);
  EXPECT_EQ(Num(health, "open_sessions"), 0.0);
  EXPECT_GT(Num(health, "max_sessions"), 0.0);
  ASSERT_NE(health.Find("git_hash"), nullptr);
  EXPECT_TRUE(health.Find("git_hash")->IsString());
  // Health is not a session verb: it must not count request traffic.
  const json::Value stats = Parsed(Handle(R"({"op":"stats"})"));
  EXPECT_EQ(Num(stats, "requests"), 0.0);
}

// A liveness probe reads no /proc file: only `stats` takes a memory
// sample, so three health probes between two stats replies add none.
TEST_F(ProtocolTest, HealthTakesNoMemorySample) {
  const auto samples = [this] {
    const json::Value stats = Parsed(Handle(R"({"op":"stats"})"));
    const json::Value* mem = stats.Find("mem");
    EXPECT_NE(mem, nullptr);
    return mem == nullptr ? 0.0 : Num(*mem, "samples");
  };
  const double before = samples();
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(Handle(R"({"op":"health"})").ok);
  EXPECT_EQ(samples(), before + 1.0);
}

TEST_F(ProtocolTest, ShutdownFlagsTheLoop) {
  const BrokerResult result = Handle(R"({"op":"shutdown"})");
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.shutdown);
  // Only shutdown sets the flag.
  EXPECT_FALSE(Handle(R"({"op":"stats"})").shutdown);
}

}  // namespace
}  // namespace stemroot::service

namespace stemroot::service {
namespace {

/// The error text of a refused request.
std::string ErrorOf(const BrokerResult& result) {
  EXPECT_FALSE(result.ok) << result.response;
  const json::Value response = Parsed(result);
  const json::Value* error = response.Find("error");
  return error == nullptr ? "" : error->string;
}

std::string OpenWith(const std::string& field) {
  return R"({"op":"open","suite":"casio","workload":"bert_infer",)"
         R"("scale":0.05,)" +
         field + "}";
}

// Hostile numbers: each field is refused before any cast could mangle it.

TEST_F(ProtocolTest, FeedCountMustBeAnExactWholeNumber) {
  const std::string sid = std::to_string(Open());
  for (const char* count : {"1e300", "2.5", "9007199254740993", "true"})
    EXPECT_NE(ErrorOf(Handle(R"({"op":"feed","id":)" + sid +
                             R"(,"count":)" + count + "}"))
                  .find("'count'"),
              std::string::npos)
        << count;
  EXPECT_TRUE(
      Handle(R"({"op":"feed","id":)" + sid + R"(,"count":4.0})").ok);
  Handle(R"({"op":"close","id":)" + sid + "}");
}

TEST_F(ProtocolTest, SessionIdMustBeAnExactWholeNumber) {
  const SessionId id = Open();
  const std::string sid = std::to_string(id);
  // 1.5 used to truncate to session 1; 1e300 was an undefined cast.
  for (const std::string& bad : {sid + ".5", std::string("1e300"),
                                 std::string("-1"), std::string("0")})
    EXPECT_FALSE(Handle(R"({"op":"query","id":)" + bad + "}").ok) << bad;
  EXPECT_TRUE(Handle(R"({"op":"query","id":)" + sid + "}").ok);
  Handle(R"({"op":"close","id":)" + sid + "}");
}

TEST_F(ProtocolTest, RepsMustFitInUint32) {
  // 2^32 + 1 used to wrap to 1.
  EXPECT_NE(ErrorOf(Handle(OpenWith(R"("reps":4294967297)"))).find("'reps'"),
            std::string::npos);
  EXPECT_FALSE(Handle(OpenWith(R"("reps":2.5)")).ok);
  EXPECT_EQ(service_.NumOpenSessions(), 0u);
}

TEST_F(ProtocolTest, SeedKeepsEveryBitAbove2To53) {
  EXPECT_FALSE(Handle(OpenWith(R"("seed":18446744073709551616)")).ok);
  EXPECT_FALSE(Handle(OpenWith(R"("seed":2.5)")).ok);
  EXPECT_FALSE(Handle(OpenWith(R"("seed":-1)")).ok);

  // 2^53 + 1 rounds to 2^53 as a double; the manifest must keep it.
  const BrokerResult opened =
      Handle(OpenWith(R"("seed":9007199254740993,"reps":2)"));
  ASSERT_TRUE(opened.ok) << opened.response;
  const std::string sid = std::to_string(
      static_cast<SessionId>(Num(Parsed(opened), "id")));
  const std::filesystem::path manifest_path =
      std::filesystem::temp_directory_path() /
      ("sr_protocol_seed_" + sid + ".json");
  std::string close = R"({"op":"close","id":)" + sid + R"(,"manifest":)";
  json::AppendString(close, manifest_path.string());
  ASSERT_TRUE(Handle(close + "}").ok);
  EXPECT_EQ(eval::RunManifest::Load(manifest_path.string()).config.seed,
            9007199254740993ull);
  std::filesystem::remove(manifest_path);
}

// JSON has no NaN or infinity literal, and the line parser refuses
// out-of-range numbers such as 1e999; the broker refuses non-finite
// settings again itself. Either way an infinite setting never opens.

TEST_F(ProtocolTest, ScaleMustBeFinite) {
  for (const char* v : {"1e999", "-1e999"})
    EXPECT_FALSE(Handle(OpenWith(std::string(R"("scale":)") + v)).ok) << v;
  EXPECT_EQ(service_.NumOpenSessions(), 0u);
}

TEST_F(ProtocolTest, EpsilonMustBeFinite) {
  for (const char* v : {"1e999", "-1e999"})
    EXPECT_FALSE(Handle(OpenWith(std::string(R"("epsilon":)") + v)).ok) << v;
  EXPECT_EQ(service_.NumOpenSessions(), 0u);
}

TEST_F(ProtocolTest, ConfidenceMustBeFinite) {
  for (const char* v : {"1e999", "-1e999"})
    EXPECT_FALSE(Handle(OpenWith(std::string(R"("confidence":)") + v)).ok)
        << v;
  EXPECT_EQ(service_.NumOpenSessions(), 0u);
}

// What a stats reply promises a watcher that polls it.

/// Every numeric leaf of a stats reply, keyed by its dotted path
/// ("verbs.feed.requests", "mem.logical.trace").
void Flatten(const json::Value& value, const std::string& path,
             std::map<std::string, double>& out) {
  if (!value.IsObject()) {
    out[path] = value.number;
    return;
  }
  for (const auto& [key, member] : *value.object)
    Flatten(member, path.empty() ? key : path + "." + key, out);
}

/// The counters and high-water marks of a stats reply: none may be lower
/// in a later reply of the same server.
bool IsMonotone(const std::string& key) {
  for (const char* counter :
       {"requests", "errors", "sessions_opened", "sessions_closed",
        "feed_invocations", "early_stops", "mem.samples", "mem.hwm_bytes"})
    if (key == counter) return true;
  if (key.starts_with("journal.") || key.starts_with("mem.logical."))
    return true;
  return key.starts_with("verbs.") &&
         (key.ends_with(".requests") || key.ends_with(".errors") ||
          key.ends_with(".total_us"));
}

TEST(ProtocolMetricsTest, StatsCountersNeverFallBetweenReplies) {
  ServiceOptions options;
  options.enable_telemetry = true;  // the logical mem peaks need it
  Service service(options);
  SessionBroker broker(service);
  const auto Handle = [&broker](const std::string& line) {
    return broker.HandleLine(line);
  };
  const std::string open =
      R"({"op":"open","suite":"casio","workload":"bert_infer",)"
      R"("scale":0.02,"seed":5,"reps":2,"order":"shuffled"})";
  std::string sid = std::to_string(
      static_cast<SessionId>(Num(Parsed(Handle(open)), "id")));
  Handle(R"({"op":"feed","id":)" + sid + R"(,"count":64})");
  std::map<std::string, double> earlier;
  Flatten(Parsed(Handle(R"({"op":"stats"})")), "", earlier);

  // Traffic between the replies: every verb, an error, a closed session
  // and a new one.
  Handle(R"({"op":"feed","id":)" + sid + R"(,"count":128})");
  Handle(R"({"op":"query","id":)" + sid + "}");
  Handle(R"({"op":"plan","id":)" + sid + "}");
  Handle(R"({"op":"eval","id":)" + sid + "}");
  EXPECT_FALSE(Handle(R"({"op":"feed","id":999,"count":4})").ok);
  Handle(R"({"op":"close","id":)" + sid + "}");
  sid = std::to_string(
      static_cast<SessionId>(Num(Parsed(Handle(open)), "id")));
  Handle(R"({"op":"feed","id":)" + sid + R"(,"count":32})");
  std::map<std::string, double> later;
  Flatten(Parsed(Handle(R"({"op":"stats"})")), "", later);
  Handle(R"({"op":"close","id":)" + sid + "}");
  telemetry::SetEnabled(false);
  telemetry::Reset();

  EXPECT_GT(later.at("requests"), earlier.at("requests"));
  EXPECT_TRUE(later.count("mem.logical.trace"));
  EXPECT_TRUE(later.count("mem.logical.service.session"));
  size_t monotone = 0;
  for (const auto& [key, before] : earlier) {
    const auto it = later.find(key);
    ASSERT_NE(it, later.end()) << key << " vanished from the later reply";
    if (!IsMonotone(key)) continue;
    ++monotone;
    EXPECT_GE(it->second, before) << key << " went backwards";
  }
  // The six verbs' requests/errors, the journal's three counts and the
  // eight top-level and mem counters at least.
  EXPECT_GE(monotone, 6u * 2 + 3 + 8);
}

TEST(ProtocolMetricsTest, StatsReportsEachVerbsTotalLatency) {
  Service service;
  SessionBroker broker(service);
  const BrokerResult opened = broker.HandleLine(
      R"({"op":"open","suite":"casio","workload":"bert_infer",)"
      R"("scale":0.02,"seed":5,"reps":2})");
  ASSERT_TRUE(opened.ok) << opened.response;
  const std::string sid =
      std::to_string(static_cast<SessionId>(Num(Parsed(opened), "id")));
  broker.HandleLine(R"({"op":"feed","id":)" + sid + R"(,"count":64})");
  broker.HandleLine(R"({"op":"feed","id":)" + sid + R"(,"count":64})");
  broker.HandleLine(R"({"op":"query","id":)" + sid + "}");

  const json::Value stats = Parsed(broker.HandleLine(R"({"op":"stats"})"));
  const json::Value* verbs = stats.Find("verbs");
  ASSERT_NE(verbs, nullptr);
  size_t busy = 0;
  for (const char* verb : {"open", "feed", "query", "plan", "eval", "close"}) {
    const json::Value* v = verbs->Find(verb);
    ASSERT_NE(v, nullptr) << verb;
    ASSERT_NE(v->Find("total_us"), nullptr) << verb;
    const double total = Num(*v, "total_us");
    if (Num(*v, "requests") == 0.0) {
      EXPECT_EQ(total, 0.0) << verb;
      continue;
    }
    ++busy;
    EXPECT_GT(total, 0.0) << verb;
    EXPECT_GE(total, Num(*v, "max_us")) << verb;
  }
  EXPECT_EQ(busy, 3u);  // open, feed and query
  broker.HandleLine(R"({"op":"close","id":)" + sid + "}");
}

// A bounded, deterministic slice of a protocol-line fuzzer: whatever
// bytes arrive, HandleLine answers with one JSON line and the service
// stays usable.

TEST_F(ProtocolTest, MutatedLinesGetOneJsonReplyAndTheServiceServesOn) {
  const std::string open =
      R"({"op":"open","suite":"casio","workload":"bert_infer",)"
      R"("scale":0.02,"seed":11,"reps":2,"order":"shuffled"})";
  // Bytes of the open line left unflipped: its numeric values, where a
  // flipped digit is a valid and larger request, and the scale member,
  // whose loss opens the workload at full scale.
  std::vector<bool> frozen(open.size(), false);
  for (size_t i = 0; i < open.size(); ++i)
    frozen[i] = (open[i] >= '0' && open[i] <= '9') || open[i] == '.';
  const size_t scale = open.find(R"("scale")");
  for (size_t i = scale; i < open.find(',', scale); ++i) frozen[i] = true;

  const auto open_session = [&] {
    const BrokerResult opened = Handle(open);
    EXPECT_TRUE(opened.ok) << opened.response;
    return std::to_string(static_cast<SessionId>(Num(Parsed(opened), "id")));
  };
  std::string sid = open_session();
  const auto lines = [&sid]() -> std::vector<std::string> {
    return {R"({"op":"feed","id":)" + sid + R"(,"count":64})",
            R"({"op":"query","id":)" + sid + R"(,"clusters":true})",
            R"({"op":"plan","id":)" + sid + "}",
            R"({"op":"eval","id":)" + sid + "}",
            R"({"op":"stats"})",
            R"({"op":"health"})",
            R"({"op":"close","id":)" + sid + "}"};
  };
  // Control: every line but close succeeds unmutated.
  for (const std::string& line : lines()) {
    if (line.find("close") == std::string::npos) {
      ASSERT_TRUE(Handle(line).ok) << line;
    }
  }

  size_t cases = 0;
  const auto check = [&](const std::string& line, bool from_open) {
    ++cases;
    BrokerResult result;
    ASSERT_NO_THROW(result = Handle(line)) << line;
    ASSERT_EQ(result.response.find('\n'), std::string::npos) << line;
    json::Value reply;
    std::string error;
    ASSERT_TRUE(json::Parse(result.response, reply, &error))
        << error << "\n" << line;
    const json::Value* ok = reply.Find("ok");
    ASSERT_NE(ok, nullptr) << result.response;
    ASSERT_EQ(ok->kind, json::Value::Kind::kBool) << result.response;
    EXPECT_EQ(ok->number != 0.0, result.ok) << result.response;
    if (!result.ok) {
      const json::Value* message = reply.Find("error");
      ASSERT_NE(message, nullptr) << result.response;
      EXPECT_TRUE(message->IsString()) << result.response;
      EXPECT_FALSE(message->string.empty()) << result.response;
    }
    // A mutated open that still opens made a session of its own; a
    // mutated close that still closes ended ours.
    if (from_open && result.ok)
      Handle(R"({"op":"close","id":)" + std::to_string(static_cast<SessionId>(
                                            Num(reply, "id"))) +
             "}");
    if (service_.NumOpenSessions() == 0) sid = open_session();
  };
  const auto flip = [](std::string line, size_t bit) {
    line[bit / 8] = static_cast<char>(line[bit / 8] ^ (1 << (bit % 8)));
    return line;
  };

  // Lines are rebuilt per case: a mutation may have moved `sid` on.
  for (size_t i = 0; i < lines().size(); ++i) {
    for (size_t bit = 0; bit < lines()[i].size() * 8; ++bit)
      check(flip(lines()[i], bit), false);
    for (size_t len = 0; len < lines()[i].size(); ++len)
      check(lines()[i].substr(0, len), false);
  }
  for (size_t bit = 0; bit < open.size() * 8; ++bit)
    if (!frozen[bit / 8]) check(flip(open, bit), true);
  for (size_t len = 0; len < open.size(); ++len)
    check(open.substr(0, len), true);

  // Random bytes at random places, a few at a time.
  Rng rng(20261019);
  for (int round = 0; round < 2048; ++round) {
    const bool from_open = round % 4 == 0;
    std::string line =
        from_open ? open : lines()[rng.NextBounded(lines().size())];
    for (uint64_t n = 1 + rng.NextBounded(4); n > 0; --n) {
      const size_t at = rng.NextBounded(line.size());
      if (from_open && frozen[at]) continue;
      line[at] = static_cast<char>(rng.NextBounded(256));
    }
    check(line, from_open);
  }
  EXPECT_GT(cases, 4000u);

  // Afterwards a fresh session opens, feeds and evaluates.
  const std::string fresh = open_session();
  ASSERT_TRUE(
      Handle(R"({"op":"feed","id":)" + fresh + R"(,"count":4096})").ok);
  const BrokerResult eval = Handle(R"({"op":"eval","id":)" + fresh + "}");
  ASSERT_TRUE(eval.ok) << eval.response;
  EXPECT_GT(Num(Parsed(eval), "speedup"), 0.0);
}

}  // namespace
}  // namespace stemroot::service
