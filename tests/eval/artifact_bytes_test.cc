/// Byte pins of the JSON artifacts users and tools read: a run manifest in
/// both layouts (the BENCH files and the ledger lines), one reply of each
/// deterministic protocol op, and one journal line. Each is compared
/// against a literal, so a change to how any member is written (integer
/// spelling, nesting, separators, indentation) fails here first.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "common/journal.h"
#include "eval/manifest.h"
#include "service/protocol.h"

namespace stemroot {
namespace {

eval::RunManifest EveryBlockManifest() {
  eval::RunManifest m;
  m.tool = "stemroot";
  m.command = "run \"quoted\"";
  m.completed = true;
  m.build = {.git_hash = "abc1234",
             .git_dirty = true,
             .compiler = "GNU 12.2.0",
             .build_type = "RelWithDebInfo",
             .sanitizer = ""};
  m.config = {.suite = "casio",
              .workload = "bert_infer",
              .gpu = "rtx2080",
              .method = "stem",
              .epsilon = 0.05,
              .confidence = 0.95,
              .scale = 0.2,
              .seed = 18446744073709551615ull,
              .reps = 4,
              .threads = 3,
              .sim_shards = 2};
  m.wall_time_seconds = 1.25;
  m.stages = {{"generate", 1, 1234.5}, {"profile", 2, 0.1}};
  m.counters = {{"core.kkt.solves", 9007199254740993ull}, {"z\tab", 0}};
  m.distributions = {{"d", {.count = 3, .min = -1.5, .mean = 0.1,
                            .max = 2e300, .p50 = 0.0, .p99 = 1e-7}}};
  m.metrics = {.present = true,
               .error_pct = 1.5,
               .theoretical_error_pct = 2.25,
               .speedup = 123.456,
               .num_samples = 40,
               .num_clusters = 7};
  m.journal = {.present = true, .emitted = 12, .dropped = 1, .errors = 0};
  m.mem = {.present = true,
           .peak_rss_bytes = 123456789,
           .samples = 5,
           .logical = {{"service.session", 4096}, {"trace", 77}}};
  m.trace_spill = {.present = true,
                   .chunk_invocations = 65536,
                   .chunks = 3,
                   .bytes = 999};
  m.error = "bad \"thing\"\n";
  return m;
}

TEST(ArtifactBytesTest, ManifestCompactLayout) {
  EXPECT_EQ(EveryBlockManifest().ToJson(/*pretty=*/false),
            R"({"schema":"stemroot-manifest-v1","tool":"stemroot",)"
            R"("command":"run \"quoted\"","completed":true,)"
            R"("build":{"git_hash":"abc1234","git_dirty":true,)"
            R"("compiler":"GNU 12.2.0","build_type":"RelWithDebInfo",)"
            R"("sanitizer":""},)"
            R"("config":{"suite":"casio","workload":"bert_infer",)"
            R"("gpu":"rtx2080","method":"stem","epsilon":0.05,)"
            R"("confidence":0.95,"scale":0.2,"seed":18446744073709551615,)"
            R"("reps":4,"threads":3,"sim_shards":2},)"
            R"("wall_time_seconds":1.25,)"
            R"("stages":[{"name":"generate","count":1,"total_us":1234.5},)"
            R"({"name":"profile","count":2,"total_us":0.1}],)"
            R"("counters":{"core.kkt.solves":9007199254740993,"z\tab":0},)"
            R"("distributions":{"d":{"count":3,"min":-1.5,"mean":0.1,)"
            R"("max":2e+300,"p50":0,"p99":1e-07}},)"
            R"("metrics":{"error_pct":1.5,"theoretical_error_pct":2.25,)"
            R"("speedup":123.456,"num_samples":40,"num_clusters":7},)"
            R"("journal":{"emitted":12,"dropped":1,"errors":0},)"
            R"("mem":{"peak_rss_bytes":123456789,"samples":5,)"
            R"("logical":{"service.session":4096,"trace":77}},)"
            R"("trace_spill":{"chunk_invocations":65536,"chunks":3,)"
            R"("bytes":999},"error":"bad \"thing\"\n"})");
}

TEST(ArtifactBytesTest, ManifestPrettyLayout) {
  EXPECT_EQ(EveryBlockManifest().ToJson(/*pretty=*/true),
            R"({
  "schema": "stemroot-manifest-v1",
  "tool": "stemroot",
  "command": "run \"quoted\"",
  "completed": true,
  "build": {"git_hash":"abc1234","git_dirty":true,"compiler":"GNU 12.2.0","build_type":"RelWithDebInfo","sanitizer":""},
  "config": {"suite":"casio","workload":"bert_infer","gpu":"rtx2080","method":"stem","epsilon":0.05,"confidence":0.95,"scale":0.2,"seed":18446744073709551615,"reps":4,"threads":3,"sim_shards":2},
  "wall_time_seconds": 1.25,
  "stages": [
    {"name":"generate","count":1,"total_us":1234.5},
    {"name":"profile","count":2,"total_us":0.1}
  ],
  "counters": {"core.kkt.solves":9007199254740993,"z\tab":0},
  "distributions": {"d":{"count":3,"min":-1.5,"mean":0.1,"max":2e+300,"p50":0,"p99":1e-07}},
  "metrics": {"error_pct":1.5,"theoretical_error_pct":2.25,"speedup":123.456,"num_samples":40,"num_clusters":7},
  "journal": {"emitted":12,"dropped":1,"errors":0},
  "mem": {"peak_rss_bytes":123456789,"samples":5,"logical":{"service.session":4096,"trace":77}},
  "trace_spill": {"chunk_invocations":65536,"chunks":3,"bytes":999},
  "error": "bad \"thing\"\n"
}
)");
}

TEST(ArtifactBytesTest, ManifestWithoutOptionalBlocks) {
  eval::RunManifest m;
  m.tool = "t";
  EXPECT_EQ(m.ToJson(/*pretty=*/false),
            R"({"schema":"stemroot-manifest-v1","tool":"t","command":"",)"
            R"("completed":false,"build":{"git_hash":"","git_dirty":false,)"
            R"("compiler":"","build_type":"","sanitizer":""},)"
            R"("config":{"suite":"","workload":"","gpu":"","method":"",)"
            R"("epsilon":0,"confidence":0,"scale":1,"seed":0,"reps":0,)"
            R"("threads":0},"wall_time_seconds":0,"stages":[],)"
            R"("counters":{}})");
  EXPECT_EQ(m.ToJson(/*pretty=*/true), R"({
  "schema": "stemroot-manifest-v1",
  "tool": "t",
  "command": "",
  "completed": false,
  "build": {"git_hash":"","git_dirty":false,"compiler":"","build_type":"","sanitizer":""},
  "config": {"suite":"","workload":"","gpu":"","method":"","epsilon":0,"confidence":0,"scale":1,"seed":0,"reps":0,"threads":0},
  "wall_time_seconds": 0,
  "stages": [],
  "counters": {}
}
)");
}

TEST(ArtifactBytesTest, ProtocolReplies) {
  service::Service service;
  service::SessionBroker broker(service);
  const auto reply = [&broker](const std::string& line) {
    return broker.HandleLine(line).response;
  };
  EXPECT_EQ(reply(R"({"op":"open","suite":"casio","workload":"bert_infer",)"
                  R"("scale":0.02,"seed":7,"reps":2})"),
            R"({"ok":true,"id":1})");
  EXPECT_EQ(reply(R"({"op":"feed","id":1,"count":12})"),
            R"({"ok":true,"fed":12,"seen":12,"converged":false,)"
            R"("early_stop":false})");
  EXPECT_EQ(reply(R"({"op":"query","id":1,"clusters":true})"),
            R"({"ok":true,"invocations_seen":12,"invocations_total":1305,)"
            R"("seen_total_us":2138.847754855295,"num_kernels":5,)"
            R"("num_clusters":5,"splits":0,"merges":0,)"
            R"("stem_samples_total":10,"stem_cost_us":2072.3756738459833,)"
            R"("allocation_error":0.010302209167925645,)"
            R"("predicted_error":0.6527048725445608,"converged":false,)"
            R"("early_stop":false,"estimated_total_us":232599.6933405134,)"
            R"("clusters":[{"kernel":"sgemm_128x64_nn","kernel_id":0,"n":6,)"
            R"("mean_us":319.9377123515467,"stddev_us":210.61201380057494,)"
            R"("stem_samples":6},{"kernel":"softmax_fw","kernel_id":1,"n":1,)"
            R"("mean_us":46.75932971936456,"stddev_us":0,"stem_samples":1},)"
            R"({"kernel":"layernorm_fw","kernel_id":2,"n":2,)"
            R"("mean_us":35.74274077371235,"stddev_us":3.00209056351909,)"
            R"("stem_samples":1},{"kernel":"gelu_fw","kernel_id":3,"n":1,)"
            R"("mean_us":39.51798900802615,"stddev_us":0,"stem_samples":1},)"
            R"({"kernel":"elementwise_add","kernel_id":4,"n":2,)"
            R"("mean_us":30.729340235600056,"stddev_us":4.752451409859147,)"
            R"("stem_samples":1}]})");
  EXPECT_EQ(reply(R"({"op":"plan","id":1})"),
            R"({"ok":true,"method":"STEM","num_samples":10,)"
            R"("distinct_invocations":10,"num_clusters":5,)"
            R"("theoretical_error":0.010302209167925644})");
  EXPECT_EQ(reply(R"({"op":"eval","id":1})"),
            R"({"ok":true,"method":"STEM","workload":"bert_infer",)"
            R"("speedup":1.0282278189073875,"error_pct":0.7251139737062,)"
            R"("theoretical_error_pct":1.0302209167925644,"num_samples":10,)"
            R"("num_clusters":5,"estimated_total_us":2154.356838802052,)"
            R"("true_total_us":2138.847754855295})");
  EXPECT_EQ(reply(R"({"op":"close","id":1})"),
            R"({"ok":true,"closed":1,"manifest_written":false})");
  EXPECT_EQ(reply(R"({"op":"feed","id":1,"count":"x"})"),
            R"({"ok":false,"error":"protocol: 'count' must be a whole )"
            R"(number in [0, 2^53]"})");
  EXPECT_EQ(reply(R"({"op":"shutdown"})"), R"({"ok":true,"shutdown":true})");
}

TEST(ArtifactBytesTest, JournalLine) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("artifact_bytes_journal_" + std::to_string(::getpid()) + ".jsonl");
  std::filesystem::remove(path);
  journal::Open(path.string());
  journal::Emit(journal::Severity::kWarn, "request.slow",
                {{"verb", "feed"},
                 {"quote", "a\"b\\c\n"},
                 {"session", uint64_t{18446744073709551615ull}},
                 {"signed", -3},
                 {"latency_us", 312000.5},
                 {"slow", true}});
  journal::Close();
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  std::filesystem::remove(path);
  const std::string masked = std::regex_replace(
      line, std::regex(R"re("(ts_us|tid)":[0-9]+)re"), "\"$1\":N");
  EXPECT_EQ(masked,
            R"({"ts_us":N,"tid":N,"seq":0,"sev":"warn",)"
            R"("event":"request.slow","verb":"feed","quote":"a\"b\\c\n",)"
            R"("session":18446744073709551615,"signed":0,)"
            R"("latency_us":312000.5,"slow":true})");
}

}  // namespace
}  // namespace stemroot
