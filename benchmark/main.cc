/// \file
/// stemroot_bench: runs one benchmark workload and reports its metrics.
///
///   stemroot_bench --workload batch_hf|dse_sweep|stream_ooc|serve_sessions
///       [--seed N] [--seconds S] [--trace 0|1] [--threads N] [--smoke]
///       --work-dir DIR [--trace-file F] [--golden F] [--record F]
///       [--update-golden]
///
/// benchmark/run.sh builds this binary and supplies the paths. The last
/// line of standard output is the result:
///   {"correct":B,"attempted":N,"failed":N,
///    "metrics":{NAME:{"value":V,"unit":U},...}}
/// with the end-to-end metrics, or with --trace 1 the per-layer ones.
/// Exit code 0 when every correctness check passed, 1 otherwise, 2 on a
/// usage error.

#include <malloc.h>

#include <charconv>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common/log.h"
#include "common/parallel.h"
#include "harness.h"

namespace {

using stemroot::bench::Config;
using stemroot::bench::Run;

struct Workload {
  const char* name;
  void (*fn)(Run&);
};

constexpr Workload kWorkloads[] = {
    {"batch_hf", stemroot::bench::RunBatchHf},
    {"dse_sweep", stemroot::bench::RunDseSweep},
    {"stream_ooc", stemroot::bench::RunStreamOoc},
    {"serve_sessions", stemroot::bench::RunServeSessions},
};

template <typename T>
bool ParseNumber(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Parses argv into `config`; returns an error message, empty on success.
std::string ParseArgs(int argc, char** argv, Config& config) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (flag == "--update-golden") {
      config.update_golden = true;
      continue;
    }
    if (i + 1 >= argc) return flag + " needs a value";
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      // Sessions carry the seed as a JSON number, exact below 2^53.
      ok = ParseNumber(value, config.seed) && config.seed < (1ull << 53);
    } else if (flag == "--seconds") {
      ok = ParseNumber(value, config.seconds) && config.seconds > 0;
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      config.trace = value == "1";
    } else if (flag == "--threads") {
      ok = ParseNumber(value, config.threads) && config.threads >= 1;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-file") {
      config.trace_file = value;
    } else if (flag == "--golden") {
      config.golden_file = value;
    } else if (flag == "--record") {
      config.record_file = value;
    } else {
      return "unknown flag " + flag;
    }
    if (!ok) return "bad value for " + flag + ": " + value;
  }
  if (config.work_dir.empty()) return "--work-dir is required";
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  std::string error = ParseArgs(argc, argv, config);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (config.workload == w.name) workload = &w;
  if (error.empty() && workload == nullptr)
    error = "unknown --workload '" + config.workload + "'";
  if (!error.empty()) {
    std::fprintf(stderr, "stemroot_bench: %s\n", error.c_str());
    return 2;
  }

  // Start glibc malloc in the state its dynamic mmap threshold converges
  // to once a large block is freed (32 MiB, trim at twice that). Left
  // dynamic, when it converges depends on which thread frees first, and
  // serve_sessions' peak RSS landed in one of two modes ~20% apart from
  // run to run.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  stemroot::SetLogLevel(stemroot::LogLevel::kWarn);
  stemroot::SetNumThreads(config.threads);
  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);

  Run run(config);
  try {
    workload->fn(run);
  } catch (const std::exception& e) {
    run.Fail(std::string("workload aborted: ") + e.what());
  }
  const int code = run.Finish();
  std::error_code ignored;
  std::filesystem::remove_all(config.work_dir, ignored);
  return code;
}
