#include "eval/manifest.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "common/journal.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "eval/ledger.h"
#include "eval/regress.h"

namespace stemroot::eval {
namespace {

/// Whether `text` loads as a manifest.
bool Loads(std::string_view text, std::string* error) {
  RunManifest ignored;
  return RunManifest::FromJson(text, ignored, error);
}

RunManifest MakeManifest() {
  RunManifest m;
  m.tool = "stemroot";
  m.command = "run";
  m.completed = true;
  m.StampBuild();
  m.config.suite = "rodinia";
  m.config.workload = "hotspot";
  m.config.gpu = "RTX2080";
  m.config.method = "stem";
  m.config.epsilon = 0.05;
  m.config.confidence = 0.95;
  m.config.scale = 1.0;
  m.config.seed = 42;
  m.config.reps = 10;
  m.config.threads = 4;
  m.wall_time_seconds = 1.25;
  m.stages = {{"generate", 1, 100.0},
              {"cluster", 10, 2500.5},
              {"evaluate", 1, 321.0}};
  m.counters = {{"core.kkt.solves", 100}, {"eval.evaluations", 1}};
  m.distributions = {
      {"core.root.cluster_size", {9, 1.0, 1.0 / 3.0 + 40.0, 212.0, 7.0,
                                  212.0}},
      {"eval.error_pct", {12, 0.1, 0.81, 2.25, 0.7, 2.25}}};
  m.metrics.present = true;
  m.metrics.error_pct = 0.81;
  m.metrics.theoretical_error_pct = 5.0;
  m.metrics.speedup = 123.5;
  m.metrics.num_samples = 17;
  m.metrics.num_clusters = 9;
  return m;
}

void ExpectEqual(const RunManifest& a, const RunManifest& b) {
  EXPECT_EQ(a.tool, b.tool);
  EXPECT_EQ(a.command, b.command);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.build.git_hash, b.build.git_hash);
  EXPECT_EQ(a.build.git_dirty, b.build.git_dirty);
  EXPECT_EQ(a.build.compiler, b.build.compiler);
  EXPECT_EQ(a.config.suite, b.config.suite);
  EXPECT_EQ(a.config.workload, b.config.workload);
  EXPECT_EQ(a.config.gpu, b.config.gpu);
  EXPECT_EQ(a.config.method, b.config.method);
  EXPECT_DOUBLE_EQ(a.config.epsilon, b.config.epsilon);
  EXPECT_DOUBLE_EQ(a.config.confidence, b.config.confidence);
  EXPECT_DOUBLE_EQ(a.config.scale, b.config.scale);
  EXPECT_EQ(a.config.seed, b.config.seed);
  EXPECT_EQ(a.config.reps, b.config.reps);
  EXPECT_EQ(a.config.threads, b.config.threads);
  EXPECT_DOUBLE_EQ(a.wall_time_seconds, b.wall_time_seconds);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].name, b.stages[i].name);
    EXPECT_EQ(a.stages[i].count, b.stages[i].count);
    EXPECT_DOUBLE_EQ(a.stages[i].total_us, b.stages[i].total_us);
  }
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.distributions, b.distributions);
  EXPECT_EQ(a.metrics.present, b.metrics.present);
  EXPECT_DOUBLE_EQ(a.metrics.error_pct, b.metrics.error_pct);
  EXPECT_DOUBLE_EQ(a.metrics.theoretical_error_pct,
                   b.metrics.theoretical_error_pct);
  EXPECT_DOUBLE_EQ(a.metrics.speedup, b.metrics.speedup);
  EXPECT_EQ(a.metrics.num_samples, b.metrics.num_samples);
  EXPECT_EQ(a.metrics.num_clusters, b.metrics.num_clusters);
  EXPECT_EQ(a.error, b.error);
}

TEST(ManifestTest, RoundTripsPrettyAndCompact) {
  const RunManifest m = MakeManifest();
  for (bool pretty : {true, false}) {
    const std::string text = m.ToJson(pretty);
    RunManifest back;
    std::string error;
    ASSERT_TRUE(RunManifest::FromJson(text, back, &error)) << error;
    ExpectEqual(m, back);
  }
  // The compact form is one line (the ledger encoding).
  const std::string compact = m.ToJson(/*pretty=*/false);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
}

TEST(ManifestTest, RoundTripsFailedRunWithErrorAndNoMetrics) {
  RunManifest m = MakeManifest();
  m.completed = false;
  m.metrics = {};
  m.error = "something \"quoted\"\nbroke";
  const std::string text = m.ToJson(/*pretty=*/true);
  RunManifest back;
  std::string error;
  ASSERT_TRUE(RunManifest::FromJson(text, back, &error)) << error;
  EXPECT_FALSE(back.completed);
  EXPECT_FALSE(back.metrics.present);
  EXPECT_EQ(back.error, m.error);
}

TEST(ManifestTest, JournalBlockRoundTrips) {
  RunManifest m = MakeManifest();
  m.journal.present = true;
  m.journal.emitted = 120;
  m.journal.dropped = 3;
  m.journal.errors = 1;
  const std::string text = m.ToJson(/*pretty=*/true);
  EXPECT_NE(text.find("\"journal\""), std::string::npos);
  RunManifest back;
  std::string error;
  ASSERT_TRUE(RunManifest::FromJson(text, back, &error)) << error;
  EXPECT_TRUE(back.journal.present);
  EXPECT_EQ(back.journal.emitted, 120u);
  EXPECT_EQ(back.journal.dropped, 3u);
  EXPECT_EQ(back.journal.errors, 1u);
}

TEST(ManifestTest, JournalBlockIsOptional) {
  // Manifests from journal-less runs carry no block; readers see
  // present == false (pre-PR documents stay loadable, and batch-path
  // serialization is unchanged byte for byte).
  const RunManifest m = MakeManifest();
  const std::string text = m.ToJson(/*pretty=*/false);
  EXPECT_EQ(text.find("journal"), std::string::npos);
  RunManifest back;
  std::string error;
  ASSERT_TRUE(RunManifest::FromJson(text, back, &error)) << error;
  EXPECT_FALSE(back.journal.present);
  EXPECT_EQ(back.journal.emitted, 0u);
}

TEST(ManifestTest, JournalBlockRejectsNegativeCounts) {
  RunManifest m = MakeManifest();
  m.journal.present = true;
  std::string text = m.ToJson(/*pretty=*/false);
  const size_t pos = text.find("\"journal\":{\"emitted\":0");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 22, "\"journal\":{\"emitted\":-1");
  RunManifest back;
  std::string error;
  EXPECT_FALSE(RunManifest::FromJson(text, back, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ManifestTest, MemBlockRoundTrips) {
  RunManifest m = MakeManifest();
  m.mem.present = true;
  m.mem.peak_rss_bytes = 123456789;
  m.mem.samples = 42;
  m.mem.logical = {{"trace", 1000}, {"root", 2000}, {"cache", 3000}};
  const std::string text = m.ToJson(/*pretty=*/true);
  EXPECT_NE(text.find("\"mem\""), std::string::npos);
  RunManifest back;
  std::string error;
  ASSERT_TRUE(RunManifest::FromJson(text, back, &error)) << error;
  EXPECT_TRUE(back.mem.present);
  EXPECT_EQ(back.mem.peak_rss_bytes, 123456789u);
  EXPECT_EQ(back.mem.samples, 42u);
  EXPECT_EQ(back.mem.logical, m.mem.logical);
}

TEST(ManifestTest, MemBlockIsOptional) {
  // Pre-PR manifests carry no mem block; readers see present == false
  // and serialization without it is byte-for-byte unchanged.
  const RunManifest m = MakeManifest();
  const std::string text = m.ToJson(/*pretty=*/false);
  EXPECT_EQ(text.find("\"mem\""), std::string::npos);
  RunManifest back;
  std::string error;
  ASSERT_TRUE(RunManifest::FromJson(text, back, &error)) << error;
  EXPECT_FALSE(back.mem.present);
  EXPECT_EQ(back.mem.peak_rss_bytes, 0u);
  EXPECT_TRUE(back.mem.logical.empty());
}

TEST(ManifestTest, MemBlockRejectsNegativeAndMalformed) {
  RunManifest m = MakeManifest();
  m.mem.present = true;
  m.mem.peak_rss_bytes = 10;
  m.mem.logical = {{"trace", 5}};
  const std::string good = m.ToJson(/*pretty=*/false);
  auto broke = [&](const std::string& from, const std::string& to) {
    std::string doc = good;
    const size_t at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    doc.replace(at, from.size(), to);
    return doc;
  };
  RunManifest back;
  std::string error;
  EXPECT_FALSE(RunManifest::FromJson(
      broke("\"peak_rss_bytes\":10", "\"peak_rss_bytes\":-10"), back,
      &error));
  EXPECT_FALSE(RunManifest::FromJson(
      broke("\"trace\":5", "\"trace\":-5"), back, &error));
  EXPECT_FALSE(RunManifest::FromJson(
      broke("\"trace\":5", "\"trace\":\"big\""), back, &error));
  // A mem block without the logical map is malformed.
  EXPECT_FALSE(RunManifest::FromJson(
      broke(",\"logical\":{\"trace\":5}", ""), back, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ManifestTest, DistributionsBlockIsOptionalAndNeverGated) {
  // Pre-distribution manifests and ledger lines carry no block: they
  // read as empty, and compare clean against a manifest that has one.
  const RunManifest with = MakeManifest();
  RunManifest without = MakeManifest();
  without.distributions.clear();
  const std::string text = without.ToJson(/*pretty=*/false);
  EXPECT_EQ(text.find("distributions"), std::string::npos);
  RunManifest back;
  std::string error;
  ASSERT_TRUE(RunManifest::FromJson(text, back, &error)) << error;
  EXPECT_TRUE(back.distributions.empty());
  EXPECT_EQ(CompareManifests(with, back).ExitCode({}), 0);
  EXPECT_EQ(CompareManifests(back, with).ExitCode({}), 0);
}

TEST(ManifestTest, DistributionsBlockRejectsMalformed) {
  const std::string good = MakeManifest().ToJson(/*pretty=*/false);
  const size_t from = good.find("\"distributions\":");
  const size_t to = good.find(",\"metrics\"");
  ASSERT_NE(from, std::string::npos);
  ASSERT_NE(to, std::string::npos);
  const std::string fields = "\"min\":1,\"mean\":1,\"max\":1,\"p50\":1";
  for (const std::string& block : {
           std::string("[]"),  // not an object
           std::string("{\"d\":3}"),  // entry not an object
           "{\"d\":{" + fields + ",\"p99\":1}}",  // no count
           "{\"d\":{\"count\":1," + fields + "}}",  // no p99
           "{\"d\":{\"count\":1," + fields + ",\"p99\":\"1\"}}",
           "{\"d\":{\"count\":-1," + fields + ",\"p99\":1}}",
           "{\"d\":{\"count\":2.5," + fields + ",\"p99\":1}}",
           "{\"d\":{\"count\":1e300," + fields + ",\"p99\":1}}"}) {
    const std::string doc = good.substr(0, from) + "\"distributions\":" +
                            block + good.substr(to);
    RunManifest back;
    std::string error;
    EXPECT_FALSE(RunManifest::FromJson(doc, back, &error)) << block;
    EXPECT_NE(error.find("distribution"), std::string::npos) << error;
  }
}

TEST(ManifestTest, CountsOutsideExactUint64RangeAreRejected) {
  // Counters, stage counts and mem.logical bytes become uint64_t: a value
  // with no exact uint64_t (negative, fractional, beyond 2^64 - 1) is
  // refused instead of cast, the journal::ReadLine rule.
  RunManifest m = MakeManifest();
  m.mem.present = true;
  m.mem.logical = {{"trace", 5}};
  const std::string good = m.ToJson(/*pretty=*/false);
  RunManifest back;
  std::string error;
  ASSERT_TRUE(RunManifest::FromJson(good, back, &error)) << error;
  const std::string fields[] = {"\"core.kkt.solves\":100",
                                "\"name\":\"generate\",\"count\":1",
                                "\"trace\":5"};
  for (const std::string& field : fields) {
    const std::string key = field.substr(0, field.rfind(':') + 1);
    for (const char* bad : {"-1", "1e300", "2.5", "18446744073709551616"}) {
      std::string doc = good;
      const size_t at = doc.find(field);
      ASSERT_NE(at, std::string::npos) << field;
      doc.replace(at, field.size(), key + bad);
      error.clear();
      EXPECT_FALSE(RunManifest::FromJson(doc, back, &error))
          << field << " -> " << bad;
      EXPECT_NE(error.find("2^64"), std::string::npos) << error;
    }
  }
  // 2^64 - 1 itself is still exact.
  std::string edge = good;
  edge.replace(edge.find(fields[0]), fields[0].size(),
               "\"core.kkt.solves\":18446744073709551615");
  ASSERT_TRUE(RunManifest::FromJson(edge, back, &error)) << error;
  EXPECT_EQ(back.counters.at("core.kkt.solves"), ~0ull);
}

TEST(ManifestTest, IntegersAbove2To53RoundTripExactly) {
  // Every integer ToJson writes loads back exactly, through FromJson and
  // through a ledger line; a double would round 2^53 + 1 to 2^53.
  for (const uint64_t n : {(1ull << 53) + 1, ~0ull}) {
    RunManifest m = MakeManifest();
    m.stages[1].count = n;
    m.counters["core.kkt.solves"] = n;
    m.distributions["eval.error_pct"].count = n;
    m.metrics.num_samples = n;
    m.metrics.num_clusters = n;
    m.journal = {.present = true, .emitted = n, .dropped = n, .errors = n};
    m.mem = {.present = true,
             .peak_rss_bytes = n,
             .samples = n,
             .logical = {{"trace", n}}};
    m.trace_spill = {.present = true,
                     .chunk_invocations = n,
                     .chunks = n,
                     .bytes = n};
    const auto expect_exact = [&](const RunManifest& back,
                                  const std::string& where) {
      ExpectEqual(m, back);
      EXPECT_EQ(back.journal.emitted, n) << where;
      EXPECT_EQ(back.journal.dropped, n) << where;
      EXPECT_EQ(back.journal.errors, n) << where;
      EXPECT_EQ(back.mem.peak_rss_bytes, n) << where;
      EXPECT_EQ(back.mem.samples, n) << where;
      EXPECT_EQ(back.mem.logical, m.mem.logical) << where;
      EXPECT_EQ(back.trace_spill.chunk_invocations, n) << where;
      EXPECT_EQ(back.trace_spill.chunks, n) << where;
      EXPECT_EQ(back.trace_spill.bytes, n) << where;
    };
    for (const bool pretty : {true, false}) {
      RunManifest back;
      std::string error;
      ASSERT_TRUE(RunManifest::FromJson(m.ToJson(pretty), back, &error))
          << error;
      expect_exact(back, pretty ? "pretty" : "compact");
    }
    const std::string path = ::testing::TempDir() + "/manifest_test_" +
                             std::to_string(::getpid()) + ".jsonl";
    std::remove(path.c_str());
    Ledger::Append(m, path);
    const Ledger ledger = Ledger::Load(path);
    std::remove(path.c_str());
    EXPECT_EQ(ledger.num_skipped(), 0u);
    ASSERT_EQ(ledger.Entries().size(), 1u);
    expect_exact(ledger.Entries()[0], "ledger");
  }
}

TEST(ManifestTest, ConfigCountsAreRangeChecked) {
  // reps/threads and the legacy sim_* fields are exact whole numbers that
  // fit their field's type; anything else is refused instead of cast.
  std::string good = MakeManifest().ToJson(/*pretty=*/false);
  good.replace(good.find("\"threads\":4"), 11,
               "\"threads\":4,\"sim_shards\":2,\"sim_threads\":3,"
               "\"epoch_cycles\":4096");
  RunManifest back;
  std::string error;
  ASSERT_TRUE(RunManifest::FromJson(good, back, &error)) << error;
  EXPECT_EQ(back.config.sim_shards, 2u);
  const auto with = [&good](const std::string& field,
                            const std::string& value) {
    std::string doc = good;
    const size_t at = doc.find(field);
    EXPECT_NE(at, std::string::npos) << field;
    if (at != std::string::npos) doc.replace(at, field.size(), value);
    return doc;
  };
  const std::string fields[] = {"\"reps\":10", "\"threads\":4",
                                "\"sim_shards\":2", "\"sim_threads\":3",
                                "\"epoch_cycles\":4096"};
  for (const std::string& field : fields) {
    const std::string key = field.substr(0, field.rfind(':') + 1);
    for (const char* bad : {"-1", "1e300", "2.5", "9007199254740993"}) {
      error.clear();
      EXPECT_FALSE(RunManifest::FromJson(with(field, key + bad), back, &error))
          << field << " -> " << bad;
      EXPECT_NE(error.find("2^53"), std::string::npos) << error;
    }
  }
  // Whole numbers past the target type are refused, with the bound named.
  for (const auto& [field, value] :
       {std::pair<std::string, std::string>{fields[0], "\"reps\":4294967296"},
        {fields[1], "\"threads\":2147483648"},
        {fields[2], "\"sim_shards\":4294967296"},
        {fields[3], "\"sim_threads\":2147483648"}}) {
    error.clear();
    EXPECT_FALSE(RunManifest::FromJson(with(field, value), back, &error))
        << value;
    EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
  }
  // The largest in-range values still read back.
  ASSERT_TRUE(RunManifest::FromJson(
      with(fields[0], "\"reps\":4294967295"), back, &error))
      << error;
  EXPECT_EQ(back.config.reps, 4294967295u);
  ASSERT_TRUE(RunManifest::FromJson(
      with(fields[1], "\"threads\":2147483647"), back, &error))
      << error;
  EXPECT_EQ(back.config.threads, 2147483647);
}

/// A dse-point manifest as builds with the sharded simulator wrote it:
/// every one carried the sim_* block, with one lane unless --sim-shards
/// asked for more.
std::string LegacyDsePointJson(const std::string& sim_shards) {
  return R"({"schema":"stemroot-manifest-v1","tool":"stemroot",)"
         R"("command":"dse-point","completed":true,)"
         R"("build":{"git_hash":"47b39ca756e9","git_dirty":false,)"
         R"("compiler":"GNU 12.2.0","build_type":"RelWithDebInfo",)"
         R"("sanitizer":""},)"
         R"("config":{"suite":"rodinia","workload":"hotspot",)"
         R"("gpu":"Cache x2","method":"STEM+Random","epsilon":0,)"
         R"("confidence":0,"scale":1,"seed":4503599627370497,"reps":0,)"
         R"("threads":4,"sim_shards":)" +
         sim_shards +
         R"(,"sim_threads":0,"epoch_cycles":4000000},)"
         R"("wall_time_seconds":0.75,"stages":[],)"
         R"("counters":{"sim.kernels_simulated":912},)"
         R"("metrics":{"error_pct":3.25,"theoretical_error_pct":0,)"
         R"("speedup":7.5,"num_samples":14,"num_clusters":0}})";
}

/// The same point as this build writes it.
RunManifest FreshDsePoint() {
  RunManifest m;
  m.tool = "stemroot";
  m.command = "dse-point";
  m.completed = true;
  m.StampBuild();
  m.config.suite = "rodinia";
  m.config.workload = "hotspot";
  m.config.gpu = "Cache x2";
  m.config.method = "STEM+Random";
  m.config.seed = 4503599627370497ull;
  m.config.threads = 4;
  m.wall_time_seconds = 0.5;
  m.counters = {{"sim.kernels_simulated", 912}};
  m.metrics.present = true;
  m.metrics.error_pct = 3.25;
  m.metrics.speedup = 7.5;
  m.metrics.num_samples = 14;
  return m;
}

TEST(ManifestTest, LegacyOneLaneBlockReadsAsAbsent) {
  // One lane was the serial simulator, so a pre-change unsharded manifest
  // is the same run as a fresh one: same ledger series, clean compare.
  const std::string legacy_json = LegacyDsePointJson("1");
  std::string error;
  RunManifest legacy;
  ASSERT_TRUE(RunManifest::FromJson(legacy_json, legacy, &error)) << error;
  EXPECT_EQ(legacy.config.sim_shards, 0u);
  EXPECT_EQ(legacy.ToJson(/*pretty=*/false).find("sim_"), std::string::npos);

  const RunManifest fresh = FreshDsePoint();
  EXPECT_EQ(fresh.ToJson(/*pretty=*/false).find("sim_"), std::string::npos);
  EXPECT_EQ(legacy.Fingerprint(), fresh.Fingerprint());
  const CompareReport report = CompareManifests(legacy, fresh);
  EXPECT_TRUE(report.comparable) << report.ToText();
  EXPECT_FALSE(report.deterministic_drift) << report.ToText();
  EXPECT_EQ(report.ExitCode(CompareOptions{}), 0);
}

TEST(ManifestTest, LegacyShardedManifestKeepsItsIdentity) {
  // More than one lane was a different model: it stays its own series,
  // never compares clean against an unsharded run, and survives a
  // rewrite with its lane count.
  RunManifest unsharded, sharded;
  std::string error;
  ASSERT_TRUE(RunManifest::FromJson(LegacyDsePointJson("1"), unsharded,
                                    &error))
      << error;
  ASSERT_TRUE(RunManifest::FromJson(LegacyDsePointJson("4"), sharded,
                                    &error))
      << error;
  EXPECT_EQ(sharded.config.sim_shards, 4u);
  EXPECT_NE(sharded.Fingerprint(), unsharded.Fingerprint());
  EXPECT_FALSE(CompareManifests(unsharded, sharded).comparable);

  const std::string rewritten = sharded.ToJson(/*pretty=*/true);
  EXPECT_NE(rewritten.find("\"sim_shards\":4"), std::string::npos)
      << rewritten;
  EXPECT_EQ(rewritten.find("sim_threads"), std::string::npos);
  RunManifest back;
  ASSERT_TRUE(RunManifest::FromJson(rewritten, back, &error)) << error;
  EXPECT_EQ(back.config.sim_shards, 4u);
  EXPECT_EQ(back.Fingerprint(), sharded.Fingerprint());
}

TEST(ManifestTest, SeedsAbove2To53ReadBackExactly) {
  // The CLI takes any 64-bit seed; a double would round 2^60 + 1 to 2^60.
  for (uint64_t seed : {(1ull << 60) + 1, (1ull << 53) + 1, ~0ull}) {
    RunManifest m = MakeManifest();
    m.config.seed = seed;
    RunManifest back;
    std::string error;
    ASSERT_TRUE(RunManifest::FromJson(m.ToJson(/*pretty=*/true), back,
                                      &error))
        << error;
    EXPECT_EQ(back.config.seed, seed);
    EXPECT_EQ(back.Fingerprint(), m.Fingerprint());
  }
  // Anything that is not a whole number in [0, 2^64) is refused.
  const std::string good = MakeManifest().ToJson(/*pretty=*/false);
  for (const char* bad :
       {"-1", "1e300", "2.5", "18446744073709551616", "1152921504606846977.0"}) {
    std::string doc = good;
    doc.replace(doc.find("\"seed\":42"), 9, std::string("\"seed\":") + bad);
    RunManifest back;
    std::string error;
    EXPECT_FALSE(RunManifest::FromJson(doc, back, &error)) << bad;
    EXPECT_NE(error.find("'seed'"), std::string::npos) << error;
  }
}

TEST(ManifestTest, MemBlockDoesNotAffectFingerprint) {
  // Physical memory is environmental: two runs that differ only in the
  // mem block are the same ledger identity.
  const RunManifest a = MakeManifest();
  RunManifest b = a;
  b.mem.present = true;
  b.mem.peak_rss_bytes = 1ull << 40;
  b.mem.logical = {{"trace", 999}};
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(ManifestTest, TraceSpillBlockRoundTrips) {
  RunManifest m = MakeManifest();
  m.trace_spill.present = true;
  m.trace_spill.chunk_invocations = 4096;
  m.trace_spill.chunks = 17;
  m.trace_spill.bytes = 987654;
  const std::string text = m.ToJson(/*pretty=*/true);
  EXPECT_NE(text.find("\"trace_spill\""), std::string::npos);
  RunManifest back;
  std::string error;
  ASSERT_TRUE(RunManifest::FromJson(text, back, &error)) << error;
  EXPECT_TRUE(back.trace_spill.present);
  EXPECT_EQ(back.trace_spill.chunk_invocations, 4096u);
  EXPECT_EQ(back.trace_spill.chunks, 17u);
  EXPECT_EQ(back.trace_spill.bytes, 987654u);
}

TEST(ManifestTest, TraceSpillBlockIsOptional) {
  // In-memory runs carry no trace_spill block; pre-section-16 manifests
  // keep parsing and serializing byte-for-byte unchanged.
  const RunManifest m = MakeManifest();
  const std::string text = m.ToJson(/*pretty=*/false);
  EXPECT_EQ(text.find("\"trace_spill\""), std::string::npos);
  RunManifest back;
  std::string error;
  ASSERT_TRUE(RunManifest::FromJson(text, back, &error)) << error;
  EXPECT_FALSE(back.trace_spill.present);
  EXPECT_EQ(back.trace_spill.chunk_invocations, 0u);
}

TEST(ManifestTest, TraceSpillBlockRejectsMalformed) {
  RunManifest m = MakeManifest();
  m.trace_spill.present = true;
  m.trace_spill.chunk_invocations = 8;
  m.trace_spill.chunks = 2;
  m.trace_spill.bytes = 100;
  const std::string good = m.ToJson(/*pretty=*/false);
  auto broke = [&](const std::string& from, const std::string& to) {
    std::string doc = good;
    const size_t at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    doc.replace(at, from.size(), to);
    return doc;
  };
  RunManifest back;
  std::string error;
  // A spill that claims zero-invocation chunks is meaningless.
  EXPECT_FALSE(RunManifest::FromJson(
      broke("\"chunk_invocations\":8", "\"chunk_invocations\":0"), back,
      &error));
  EXPECT_FALSE(RunManifest::FromJson(
      broke("\"chunks\":2", "\"chunks\":-2"), back, &error));
  EXPECT_FALSE(RunManifest::FromJson(
      broke("\"bytes\":100", "\"bytes\":\"many\""), back, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ManifestTest, ChunkSizeSplitsFingerprintLikeEpochCycles) {
  // chunk_invocations never changes results (the byte-identity contract)
  // but does change the wall-time profile, so perf baselines split on it,
  // as they once did on the retired simulator's epoch length.
  // chunks/bytes are derived facts and stay out.
  const RunManifest a = MakeManifest();
  RunManifest b = a;
  b.trace_spill.present = true;
  b.trace_spill.chunk_invocations = 1024;
  b.trace_spill.chunks = 3;
  b.trace_spill.bytes = 500;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  RunManifest c = b;
  c.trace_spill.chunks = 99;
  c.trace_spill.bytes = 12345;
  EXPECT_EQ(b.Fingerprint(), c.Fingerprint());
  RunManifest d = b;
  d.trace_spill.chunk_invocations = 2048;
  EXPECT_NE(b.Fingerprint(), d.Fingerprint());
}

TEST(ManifestTest, ValidationRejectsNonConformingDocuments) {
  std::string error;
  EXPECT_FALSE(Loads("not json at all", &error));
  EXPECT_FALSE(Loads("[]", &error));
  EXPECT_FALSE(Loads("{}", &error));
  EXPECT_FALSE(Loads(R"({"schema": "some-other-schema"})", &error));

  // Field-level violations: start from a valid doc and break one thing.
  const RunManifest m = MakeManifest();
  const std::string good = m.ToJson(/*pretty=*/false);
  ASSERT_TRUE(Loads(good, &error)) << error;

  auto broke = [&](const std::string& from, const std::string& to) {
    std::string doc = good;
    const size_t at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    doc.replace(at, from.size(), to);
    return doc;
  };
  // Missing build stamp member.
  EXPECT_FALSE(Loads(broke("\"git_hash\"", "\"nope\""), &error));
  // completed must be a bool.
  EXPECT_FALSE(
      Loads(broke("\"completed\":true", "\"completed\":1"), &error));
  // Negative wall time.
  EXPECT_FALSE(Loads(
      broke("\"wall_time_seconds\":1.25", "\"wall_time_seconds\":-1"),
      &error));
  // Stage entry missing its count.
  EXPECT_FALSE(Loads(broke("\"count\":1,", "\"clowns\":1,"), &error));
  // Non-numeric counter value.
  EXPECT_FALSE(Loads(
      broke("\"core.kkt.solves\":100", "\"core.kkt.solves\":\"x\""),
      &error));
  // Metrics present but incomplete.
  EXPECT_FALSE(Loads(broke("\"speedup\"", "\"speedip\""), &error));
}

TEST(ManifestTest, FingerprintCoversConfigButNotBuild) {
  const RunManifest a = MakeManifest();
  RunManifest b = a;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());

  // The build stamp is deliberately excluded: the ledger compares runs
  // across revisions.
  b.build.git_hash = "deadbeef0000";
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());

  // Every config knob (threads included) is part of the identity.
  b = a; b.config.workload = "lud";
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b = a; b.config.seed = 43;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b = a; b.config.threads = 8;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b = a; b.config.epsilon = 0.10;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b = a; b.command = "evaluate";
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(ManifestTest, FindStage) {
  const RunManifest m = MakeManifest();
  ASSERT_NE(m.FindStage("cluster"), nullptr);
  EXPECT_DOUBLE_EQ(m.FindStage("cluster")->total_us, 2500.5);
  EXPECT_EQ(m.FindStage("warp_drive"), nullptr);
}

TEST(ManifestTest, FillFromSnapshotAggregatesStagesAndCounters) {
  telemetry::SetEnabled(true);
  telemetry::Reset();
  {
    telemetry::Span gen("generate");
    telemetry::Count("widgets", 3);
  }
  { telemetry::Span eval_span("evaluate"); }
  RunManifest m;
  m.FillFromSnapshot(telemetry::Capture());
  telemetry::Reset();
  telemetry::SetEnabled(false);

  ASSERT_EQ(m.stages.size(), 2u);
  // Canonical pipeline order, not alphabetical.
  EXPECT_EQ(m.stages[0].name, "generate");
  EXPECT_EQ(m.stages[1].name, "evaluate");
  EXPECT_EQ(m.counters.at("widgets"), 3u);

  // An empty snapshot empties all three, and the stage table renders
  // without dividing by the zero total.
  m.distributions["stale"] = {};
  m.FillFromSnapshot(telemetry::Snapshot());
  EXPECT_TRUE(m.stages.empty());
  EXPECT_TRUE(m.counters.empty());
  EXPECT_TRUE(m.distributions.empty());
  EXPECT_FALSE(m.StagesText().empty());
}

TEST(ManifestTest, NestedParentageAggregatesByName) {
  telemetry::SetEnabled(true);
  telemetry::Reset();
  {
    telemetry::Span gen("generate");
    { telemetry::Span inner("profile"); }
  }
  // The same stage name under a different parent still folds into one row.
  { telemetry::Span profile_again("profile"); }
  telemetry::Record("sizes", 4.0);
  telemetry::Record("sizes", 1.0);
  RunManifest m;
  m.FillFromSnapshot(telemetry::Capture());
  telemetry::Reset();
  telemetry::SetEnabled(false);

  // Canonical stages come first, in pipeline order.
  ASSERT_EQ(m.stages.size(), 2u);
  EXPECT_EQ(m.stages[0].name, "generate");
  EXPECT_EQ(m.stages[0].count, 1u);
  EXPECT_EQ(m.stages[1].name, "profile");
  EXPECT_EQ(m.stages[1].count, 2u);
  const telemetry::DistSummary sizes = m.distributions.at("sizes");
  EXPECT_EQ(sizes.count, 2u);
  EXPECT_EQ(sizes.min, 1.0);
  EXPECT_EQ(sizes.mean, 2.5);
  EXPECT_EQ(sizes.max, 4.0);
}

TEST(ManifestTest, DeeplyNestedSpansKeepDistinctParents) {
  telemetry::SetEnabled(true);
  telemetry::Reset();
  {
    telemetry::Span a("a");
    telemetry::Span b("b");
    telemetry::Span c("c");
    telemetry::Span d("d");
  }
  const telemetry::Snapshot snap = telemetry::Capture();
  telemetry::Reset();
  telemetry::SetEnabled(false);
  ASSERT_EQ(snap.Spans().count({"d", "c"}), 1u);
  ASSERT_EQ(snap.Spans().count({"c", "b"}), 1u);
  ASSERT_EQ(snap.Spans().count({"b", "a"}), 1u);
  ASSERT_EQ(snap.Spans().count({"a", ""}), 1u);

  // Non-canonical span names follow alphabetically, one row each.
  RunManifest m;
  m.FillFromSnapshot(snap);
  ASSERT_EQ(m.stages.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(m.stages[i].name, std::string(1, static_cast<char>('a' + i)));
    EXPECT_EQ(m.stages[i].count, 1u);
  }
}

TEST(ManifestTest, SaveAndLoad) {
  const std::string path = ::testing::TempDir() + "/manifest_test.json";
  const RunManifest m = MakeManifest();
  m.Save(path);
  const RunManifest back = RunManifest::Load(path);
  ExpectEqual(m, back);
  std::remove(path.c_str());
  EXPECT_THROW(RunManifest::Load(path), std::runtime_error);
}

// Count the `<name>.tmp.<pid>` staging files Save leaves behind in `dir`
// (there must never be any once Save returns, success or not).
size_t TempResidue(const std::string& dir) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().filename().string().find(".tmp.") != std::string::npos)
      ++n;
  return n;
}

TEST(ManifestTest, SaveLeavesNoTempResidueAndOverwritesAtomically) {
  const std::string dir = ::testing::TempDir() + "/manifest_atomic_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/m.json";

  RunManifest m = MakeManifest();
  m.Save(path);
  EXPECT_EQ(TempResidue(dir), 0u);

  // Overwriting an existing manifest goes through the same staged rename.
  m.wall_time_seconds = 9.0;
  m.Save(path);
  EXPECT_EQ(TempResidue(dir), 0u);
  EXPECT_DOUBLE_EQ(RunManifest::Load(path).wall_time_seconds, 9.0);
  std::filesystem::remove_all(dir);
}

TEST(ManifestTest, SaveToUnwritablePathThrowsWithoutResidue) {
  // A regular file where a directory is needed makes the temp-file open
  // fail for any user (chmod-based tests are no-ops under root).
  const std::string dir = ::testing::TempDir() + "/manifest_blocked_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string blocker = dir + "/blocker";
  { std::ofstream(blocker) << "not a directory"; }

  EXPECT_THROW(MakeManifest().Save(blocker + "/m.json"),
               std::runtime_error);
  EXPECT_EQ(TempResidue(dir), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ManifestTest, FailedRenamePreservesTheDestination) {
  // Renaming a file over an existing directory fails after the temp file
  // was fully written: Save must clean up the temp and leave the
  // destination untouched.
  const std::string dir = ::testing::TempDir() + "/manifest_rename_test";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/m.json";
  std::filesystem::create_directories(path);  // destination is a directory

  EXPECT_THROW(MakeManifest().Save(path), std::runtime_error);
  EXPECT_TRUE(std::filesystem::is_directory(path));
  EXPECT_EQ(TempResidue(dir), 0u);
  std::filesystem::remove_all(dir);
}

// A bounded, deterministic slice of a fuzzer for the two line readers:
// whatever bytes a manifest or journal line holds, the reader loads it or
// refuses it with a reason, and never throws.
TEST(ManifestTest, MutatedManifestAndJournalLinesLoadOrRefuse) {
  RunManifest every = MakeManifest();  // with distributions and metrics
  every.journal = {.present = true, .emitted = 12, .dropped = 1, .errors = 0};
  every.mem = {.present = true,
               .peak_rss_bytes = 123456789,
               .samples = 5,
               .logical = {{"service.session", 4096}, {"trace", 77}}};
  every.trace_spill = {
      .present = true, .chunk_invocations = 65536, .chunks = 3, .bytes = 999};
  const std::string manifest = every.ToJson(/*pretty=*/false);

  const std::filesystem::path journal_path =
      std::filesystem::temp_directory_path() /
      ("sr_manifest_fuzz_" + std::to_string(::getpid()) + ".jsonl");
  std::filesystem::remove(journal_path);
  journal::Open(journal_path.string());
  journal::Emit(journal::Severity::kWarn, "request.slow",
                {{"verb", "feed"},
                 {"session", uint64_t{3}},
                 {"latency_us", 312000.5},
                 {"slow", true}});
  journal::Close();
  std::string journal_line;
  std::getline(std::ifstream(journal_path), journal_line);
  std::filesystem::remove(journal_path);
  const std::optional<journal::Line> control = journal::ReadLine(journal_line);
  ASSERT_TRUE(control && control->WellFormed()) << journal_line;

  size_t cases = 0;
  size_t loaded = 0;
  const auto check_manifest = [&](const std::string& text) {
    ++cases;
    RunManifest m;
    std::string error;
    bool ok = false;
    ASSERT_NO_THROW(ok = RunManifest::FromJson(text, m, &error)) << text;
    if (!ok) {
      EXPECT_FALSE(error.empty()) << text;
      return;
    }
    ++loaded;
    // What loads writes back to bytes that load to the same bytes.
    const std::string again = m.ToJson(/*pretty=*/false);
    RunManifest back;
    ASSERT_TRUE(RunManifest::FromJson(again, back, &error))
        << error << "\n" << text;
    EXPECT_EQ(back.ToJson(/*pretty=*/false), again) << text;
  };
  const auto check_journal = [&](const std::string& text) {
    ++cases;
    ASSERT_NO_THROW(journal::ReadLine(text)) << text;
  };
  const auto flip = [](std::string line, size_t bit) {
    line[bit / 8] = static_cast<char>(line[bit / 8] ^ (1 << (bit % 8)));
    return line;
  };

  for (size_t bit = 0; bit < manifest.size() * 8; ++bit)
    check_manifest(flip(manifest, bit));
  for (size_t len = 0; len < manifest.size(); ++len)
    check_manifest(manifest.substr(0, len));
  for (size_t bit = 0; bit < journal_line.size() * 8; ++bit)
    check_journal(flip(journal_line, bit));
  for (size_t len = 0; len < journal_line.size(); ++len)
    check_journal(journal_line.substr(0, len));

  // Random bytes at random places, a few at a time.
  Rng rng(20261019);
  for (int round = 0; round < 2048; ++round) {
    const bool is_manifest = round % 2 == 0;
    std::string line = is_manifest ? manifest : journal_line;
    for (uint64_t n = 1 + rng.NextBounded(4); n > 0; --n)
      line[rng.NextBounded(line.size())] =
          static_cast<char>(rng.NextBounded(256));
    if (is_manifest) {
      check_manifest(line);
    } else {
      check_journal(line);
    }
  }
  EXPECT_GT(cases, 10000u);
  // Flips inside names and digits still load: the mutations reach past
  // the parser into the schema reads.
  EXPECT_GT(loaded, 500u);
}

}  // namespace
}  // namespace stemroot::eval
