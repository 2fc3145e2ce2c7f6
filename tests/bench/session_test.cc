#include "bench_util.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "eval/manifest.h"

namespace stemroot::bench {
namespace {

/// Run a Session for `args` (after argv[0]) inside a scratch directory and
/// return the manifest it leaves.
eval::RunManifest ManifestOf(const std::vector<std::string>& args) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "sr_bench_session_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::filesystem::path old_cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  std::vector<const char*> argv = {"perf_probe"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  argv.push_back("--ledger");
  argv.push_back("none");
  // perf_scalability's shape: `--benchmark_*` words go to a parser.
  const auto accept = [](int*, char**) { return true; };
  { Session session(static_cast<int>(argv.size()), argv.data(), accept); }
  const eval::RunManifest manifest =
      eval::RunManifest::Load("bench_results/BENCH_perf_probe.json");
  std::filesystem::current_path(old_cwd);
  std::filesystem::remove_all(dir);
  return manifest;
}

TEST(BenchSessionTest, BenchmarkFilterAndRepetitionsSplitTheFingerprint) {
  const eval::RunManifest full = ManifestOf({});
  const eval::RunManifest filtered =
      ManifestOf({"--benchmark_filter=DseSweepThreads"});
  const eval::RunManifest repeated =
      ManifestOf({"--benchmark_filter=DseSweepThreads",
                  "--benchmark_repetitions=3"});
  EXPECT_EQ(full.config.workload, "");
  EXPECT_EQ(full.config.reps, 0u);
  EXPECT_EQ(filtered.config.workload, "DseSweepThreads");
  EXPECT_EQ(repeated.config.reps, 3u);
  EXPECT_NE(full.Fingerprint(), filtered.Fingerprint());
  EXPECT_NE(filtered.Fingerprint(), repeated.Fingerprint());
  // Same flags, same series.
  EXPECT_EQ(filtered.Fingerprint(),
            ManifestOf({"--benchmark_filter=DseSweepThreads"}).Fingerprint());
}

}  // namespace
}  // namespace stemroot::bench
