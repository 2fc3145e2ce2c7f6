#include "eval/manifest.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/telemetry.h"
#include "eval/regress.h"

namespace stemroot::eval {
namespace {

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

TEST(ManifestTest, CountsOutsideExactUint64RangeAreRejected) {
  // Counters, stage counts and mem.logical bytes become uint64_t: a value
  // with no exact uint64_t (negative, fractional, beyond 2^53) is refused
  // instead of cast, the journal::ReadLine rule.
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
    for (const char* bad : {"-1", "1e300", "2.5", "9007199254740994"}) {
      std::string doc = good;
      const size_t at = doc.find(field);
      ASSERT_NE(at, std::string::npos) << field;
      doc.replace(at, field.size(), key + bad);
      error.clear();
      EXPECT_FALSE(RunManifest::FromJson(doc, back, &error))
          << field << " -> " << bad;
      EXPECT_NE(error.find("2^53"), std::string::npos) << error;
    }
  }
  // 2^53 itself is still exact.
  std::string edge = good;
  edge.replace(edge.find(fields[0]), fields[0].size(),
               "\"core.kkt.solves\":9007199254740992");
  ASSERT_TRUE(RunManifest::FromJson(edge, back, &error)) << error;
  EXPECT_EQ(back.counters.at("core.kkt.solves"), 9007199254740992ull);
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
  EXPECT_TRUE(ValidateManifestJson(legacy_json, &error)) << error;
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
    EXPECT_NE(error.find("\"seed\""), std::string::npos) << error;
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
  EXPECT_FALSE(ValidateManifestJson("not json at all", &error));
  EXPECT_FALSE(ValidateManifestJson("[]", &error));
  EXPECT_FALSE(ValidateManifestJson("{}", &error));
  EXPECT_FALSE(
      ValidateManifestJson(R"({"schema": "some-other-schema"})", &error));

  // Field-level violations: start from a valid doc and break one thing.
  const RunManifest m = MakeManifest();
  const std::string good = m.ToJson(/*pretty=*/false);
  ASSERT_TRUE(ValidateManifestJson(good, &error)) << error;

  auto broke = [&](const std::string& from, const std::string& to) {
    std::string doc = good;
    const size_t at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    doc.replace(at, from.size(), to);
    return doc;
  };
  // Missing build stamp member.
  EXPECT_FALSE(
      ValidateManifestJson(broke("\"git_hash\"", "\"nope\""), &error));
  // completed must be a bool.
  EXPECT_FALSE(
      ValidateManifestJson(broke("\"completed\":true", "\"completed\":1"),
                           &error));
  // Negative wall time.
  EXPECT_FALSE(ValidateManifestJson(
      broke("\"wall_time_seconds\":1.25", "\"wall_time_seconds\":-1"),
      &error));
  // Stage entry missing its count.
  EXPECT_FALSE(
      ValidateManifestJson(broke("\"count\":1,", "\"clowns\":1,"), &error));
  // Non-numeric counter value.
  EXPECT_FALSE(ValidateManifestJson(
      broke("\"core.kkt.solves\":100", "\"core.kkt.solves\":\"x\""),
      &error));
  // Metrics present but incomplete.
  EXPECT_FALSE(
      ValidateManifestJson(broke("\"speedup\"", "\"speedip\""), &error));
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

}  // namespace
}  // namespace stemroot::eval
