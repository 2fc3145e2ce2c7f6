#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "baselines/registry.h"
#include "common/build_info.h"
#include "common/cache.h"
#include "common/json.h"
#include "common/stats.h"
#include "common/str.h"
#include "core/sampler_registry.h"
#include "hw/gpu_spec.h"

namespace stemroot::bench {

namespace {

/// Where a metric is reported: the untraced result line (end to end), the
/// traced result line (per layer), or the printed table only (the
/// workload-specific headline numbers, which the result line cannot carry
/// because every workload must report every listed metric).
enum class Kind { kEndToEnd, kLayer, kInfo };

struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind;
  /// A pure function of the seed and the code: it must repeat exactly
  /// across runs and thread counts (agree.py compares it exactly).
  bool deterministic;
};

// Keep in sync with BENCHMARK.json (smoke.py checks it).
constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", Kind::kEndToEnd, false},
    {"pass_p50_s", "s", Kind::kEndToEnd, false},
    {"peak_rss_mb", "MiB", Kind::kEndToEnd, false},

    {"workloads.generate_s", "s", Kind::kLayer, false},
    {"workloads.invocations", "count", Kind::kLayer, true},
    {"hw.profile_s", "s", Kind::kLayer, false},
    {"core.build_plan_s", "s", Kind::kLayer, false},
    {"core.build_plan_calls", "count", Kind::kLayer, true},
    {"core.clusters", "count", Kind::kLayer, true},
    {"core.samples", "count", Kind::kLayer, true},
    {"eval.evaluate_plan_s", "s", Kind::kLayer, false},
    {"eval.parallel_efficiency", "fraction", Kind::kLayer, false},
    {"core.streaming_root_s", "s", Kind::kLayer, false},
    {"core.streaming_root_ns_per_inv", "ns", Kind::kLayer, false},
    {"core.streaming_splits", "count", Kind::kLayer, true},
    {"core.streaming_merges", "count", Kind::kLayer, true},
    {"trace.spill_write_s", "s", Kind::kLayer, false},
    {"trace.spill_bytes", "B", Kind::kLayer, true},
    {"trace.chunk_read_s", "s", Kind::kLayer, false},
    {"trace.chunks", "count", Kind::kLayer, true},
    {"trace.read_mb_per_s", "MB/s", Kind::kLayer, false},
    {"eval.stream_fold_s", "s", Kind::kLayer, false},
    {"sim.full_s", "s", Kind::kLayer, false},
    {"sim.sampled_s", "s", Kind::kLayer, false},
    {"sim.full_mcycles", "Mcycles", Kind::kLayer, true},
    {"sim.sampled_mcycles", "Mcycles", Kind::kLayer, true},
    {"sim.kernels_simulated", "count", Kind::kLayer, true},
    {"sim.warp_instructions", "count", Kind::kLayer, true},
    {"sim.mwinst_per_s", "Mwinst/s", Kind::kLayer, false},
    {"dse.point_p50_s", "s", Kind::kLayer, false},
    {"dse.point_max_s", "s", Kind::kLayer, false},
    {"dse.sweep_efficiency", "fraction", Kind::kLayer, false},
    {"service.open_ms_p50", "ms", Kind::kLayer, false},
    {"service.feed_ms_p50", "ms", Kind::kLayer, false},
    {"service.plan_ms_p50", "ms", Kind::kLayer, false},
    {"service.eval_ms_p50", "ms", Kind::kLayer, false},
    {"service.close_ms_p50", "ms", Kind::kLayer, false},
    {"service.feed_ms_p99", "ms", Kind::kLayer, false},
    {"service.query_us_p50", "us", Kind::kLayer, false},
    {"service.transport_ms_p50", "ms", Kind::kLayer, false},
    {"service.fed_frac", "fraction", Kind::kLayer, true},
    {"service.early_stop_frac", "fraction", Kind::kLayer, true},
    {"service.requests", "count", Kind::kLayer, false},
    {"service.errors", "count", Kind::kLayer, false},
    {"eval.error_pct", "%", Kind::kLayer, true},
    {"eval.speedup_x", "x", Kind::kLayer, true},
    {"eval.within_eps_frac", "fraction", Kind::kLayer, true},
    {"trace_overhead_pct", "%", Kind::kLayer, false},

    {"pass_samples", "count", Kind::kInfo, false},
    {"batch_minv_per_s", "Minv/s", Kind::kInfo, false},
    {"stream_minv_per_s", "Minv/s", Kind::kInfo, false},
    {"sim_mcycles_per_s", "Mcycles/s", Kind::kInfo, false},
    {"feed_p50_ms", "ms", Kind::kInfo, false},
    {"feed_p99_ms", "ms", Kind::kInfo, false},
    {"feed_samples", "count", Kind::kInfo, false},
    {"session_p90_s", "s", Kind::kInfo, false},
    {"sessions_per_s", "1/s", Kind::kInfo, false},
};

const MetricDef* FindMetric(std::string_view name) {
  for (const MetricDef& def : kMetrics)
    if (name == def.name) return &def;
  return nullptr;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kEndToEnd: return "end_to_end";
    case Kind::kLayer: return "per_layer";
    case Kind::kInfo: return "info";
  }
  return "";
}

/// Open spans of the calling thread, innermost last (the next span's
/// parent).
thread_local std::vector<const SpanRecord*> t_open_spans;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void WriteFile(const std::string& path, const std::string& text, bool append) {
  const std::filesystem::path p(path);
  if (p.has_parent_path())
    std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  out << text;
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Golden digests: {workload: {key: hex}}.
using Golden = std::map<std::string, std::map<std::string, std::string>>;

Golden ReadGolden(const std::string& path) {
  Golden golden;
  std::ifstream in(path);
  if (!in) return golden;
  std::stringstream text;
  text << in.rdbuf();
  json::Value root;
  std::string error;
  if (!json::Parse(text.str(), root, &error) || !root.IsObject())
    throw std::runtime_error(path + ": not a JSON object: " + error);
  for (const auto& [workload, keys] : *root.object) {
    if (!keys.IsObject()) continue;  // e.g. the "seed" member
    for (const auto& [key, digest] : *keys.object)
      if (digest.IsString()) golden[workload][key] = digest.string;
  }
  return golden;
}

void WriteGolden(const std::string& path, const Golden& golden) {
  std::string out = "{\n  \"seed\": " + std::to_string(kDefaultSeed);
  for (const auto& [workload, keys] : golden) {
    out += ",\n  ";
    json::AppendString(out, workload);
    out += ": {";
    bool first = true;
    for (const auto& [key, digest] : keys) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      json::AppendString(out, key);
      out += ": ";
      json::AppendString(out, digest);
    }
    out += "\n  }";
  }
  out += "\n}\n";
  WriteFile(path, out, /*append=*/false);
}

/// {"name": {"value": v, "unit": u}, ...}. With `only`, the result line's
/// form: every metric of that kind, where a per-layer metric the workload
/// does not exercise reads 0. Without, the record's form: every metric
/// set, plus its kind and determinism flag.
std::string MetricsJson(const std::map<std::string, double>& values,
                        std::optional<Kind> only) {
  std::string out = "{";
  for (const MetricDef& def : kMetrics) {
    if (only && def.kind != *only) continue;
    const auto it = values.find(def.name);
    if (it == values.end() && only != Kind::kLayer) continue;
    if (out.size() > 1) out += ",";
    json::AppendString(out, def.name);
    out += ":{\"value\":";
    out += json::Number(it == values.end() ? 0.0 : it->second);
    out += ",\"unit\":";
    json::AppendString(out, def.unit);
    if (!only) {
      out += ",\"kind\":";
      json::AppendString(out, KindName(def.kind));
      out += ",\"deterministic\":";
      out += def.deterministic ? "true" : "false";
    }
    out += "}";
  }
  return out + "}";
}

std::string NumberArray(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) {
    if (out.size() > 1) out += ",";
    out += json::Number(v);
  }
  return out + "]";
}

}  // namespace

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  return Pct(std::move(values), 50);
}

double Pct(std::vector<double> values, double p) {
  return values.empty() ? 0.0 : Percentile(values, p);
}

// ---------------------------------------------------------------------------
// Tracing

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Add(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

std::vector<double> Tracer::Durations(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_)
    if (s.name == name) out.push_back((s.end_us - s.start_us) * 1e-6);
  return out;
}

double Tracer::Total(std::string_view name) const {
  double sum = 0.0;
  for (const double d : Durations(name)) sum += d;
  return sum;
}

void Tracer::WriteChrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\":";
    json::AppendString(out, s.name);
    out += ",\"cat\":";
    json::AppendString(out, s.name.substr(0, s.name.find('.')));
    out += ",\"ph\":\"X\",\"ts\":" + json::Number(s.start_us) +
           ",\"dur\":" + json::Number(s.end_us - s.start_us) +
           ",\"pid\":1,\"tid\":" + std::to_string(s.tid) +
           ",\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + std::to_string(s.request) + "}}";
  }
  out += "\n]}\n";
  WriteFile(path, out, /*append=*/false);
}

Span::Span(std::string_view name, uint64_t request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.Enabled()) return;
  SpanRecord& r = record_.emplace();
  const SpanRecord* parent =
      t_open_spans.empty() ? nullptr : t_open_spans.back();
  r.id = tracer.NextId();
  r.parent = parent != nullptr ? parent->id : 0;
  r.request = request != 0       ? request
              : parent != nullptr ? parent->request
                                  : 0;
  r.tid = ThreadIndex();
  r.name = std::string(name);
  r.start_us = tracer.NowUs();
  t_open_spans.push_back(&r);
}

Span::~Span() {
  if (!record_) return;
  t_open_spans.pop_back();
  record_->end_us = Tracer::Get().NowUs();
  Tracer::Get().Add(std::move(*record_));
}

// ---------------------------------------------------------------------------
// Helpers

Digest& Digest::Add(double v) {
  text_ += FormatDouble(v);
  text_ += '|';
  return *this;
}

Digest& Digest::Add(std::string_view s) {
  text_ += s;
  text_ += '|';
  return *this;
}

std::string Digest::Hex() const { return HexDigest64(Fnv1a64(text_)); }

eval::Pipeline GenerateProfiled(workloads::SuiteId suite,
                                const std::string& workload, uint64_t seed,
                                double scale) {
  eval::Pipeline pipeline = Traced("workloads.generate", [&] {
    return eval::Pipeline::Generate(suite, workload,
                                    {.seed = seed, .size_scale = scale});
  });
  Span span("hw.profile");
  pipeline.Profile(hw::GpuSpec::Rtx2080());
  return pipeline;
}

std::unique_ptr<core::Sampler> MakeSampler(const std::string& method) {
  baselines::EnsureBuiltinSamplers();
  return core::SamplerRegistry::Global().Create(method);
}

// ---------------------------------------------------------------------------
// Run

Run::Run(Config config) : config_(std::move(config)) {}

void Run::Passes(const std::function<void(uint64_t)>& pass) {
  uint64_t index = 0;
  if (!config_.smoke) pass(index++);
  Phases([&](double budget, std::vector<double>& samples) {
    const Clock::time_point start = Clock::now();
    do {
      const Clock::time_point t0 = Clock::now();
      {
        Span span("pass", index + 1);
        pass(index++);
      }
      samples.push_back(SecondsSince(t0));
    } while (!config_.smoke && SecondsSince(start) + samples.back() <= budget);
  });
}

void Run::Phases(
    const std::function<void(double, std::vector<double>&)>& phase) {
  const double budget = config_.trace ? config_.seconds / 2 : config_.seconds;
  phase(budget, pass_s_);
  if (!config_.trace) return;
  Tracer::Get().SetEnabled(true);
  phase(budget, traced_pass_s_);
  Tracer::Get().SetEnabled(false);
}

void Run::Decompose(const std::function<void()>& fn) {
  if (!config_.trace) return;
  Tracer::Get().SetEnabled(true);
  {
    Span span("decomposition");
    fn();
  }
  Tracer::Get().SetEnabled(false);
}

void Run::Check(const std::string& key, const std::string& digest) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  const auto [it, inserted] = references_.emplace(key, digest);
  if (!inserted && it->second != digest) {
    ++failed_;
    failures_.push_back(key + ": output " + digest + " differs from " +
                        it->second);
  }
}

void Run::Attempt(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

void Run::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  failures_.push_back(what);
}

void Run::Set(const std::string& name, double value) {
  if (FindMetric(name) == nullptr)
    throw std::logic_error("metric '" + name + "' is not in the table");
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] = value;
}

void Run::CheckGolden() {
  if (config_.update_golden) {
    if (config_.seed != kDefaultSeed || failed_ > 0) {
      Fail("golden digests are written only by a correct run at seed " +
           std::to_string(kDefaultSeed));
      return;
    }
    Golden golden = ReadGolden(config_.golden_file);
    golden[config_.workload] = references_;
    WriteGolden(config_.golden_file, golden);
    return;
  }
  // Other seeds have no golden digests: their passes are checked against
  // each other and against the decomposition only.
  if (config_.seed != kDefaultSeed) return;
  const std::map<std::string, std::string> expected =
      ReadGolden(config_.golden_file)[config_.workload];
  for (const auto& [key, digest] : references_) {
    const auto it = expected.find(key);
    Attempt(it != expected.end() && it->second == digest,
            key + ": output " + digest + " differs from " +
                config_.golden_file + " (" +
                (it == expected.end() ? "missing" : it->second) + ")");
  }
}

std::string Run::RecordJson() const {
  const BuildInfo& build = GetBuildInfo();
  std::string rec = "{\"workload\":";
  json::AppendString(rec, config_.workload);
  rec += ",\"seed\":" + std::to_string(config_.seed);
  rec += ",\"trace\":" + std::string(config_.trace ? "true" : "false");
  rec += ",\"fingerprint\":{\"workload\":";
  json::AppendString(rec, config_.workload);
  rec += ",\"sizes\":";
  json::AppendString(rec, sizes_);
  rec += ",\"seed\":" + std::to_string(config_.seed);
  rec += ",\"seconds\":" + json::Number(config_.seconds);
  rec += ",\"smoke\":" + std::string(config_.smoke ? "true" : "false");
  rec += ",\"threads\":" + std::to_string(config_.threads);
  rec += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  rec += ",\"build_type\":";
  json::AppendString(rec, build.build_type);
  rec += ",\"compiler\":";
  json::AppendString(rec, build.compiler);
  rec += ",\"git_hash\":";
  json::AppendString(rec, build.git_hash);
  rec += ",\"git_dirty\":" + std::string(build.git_dirty ? "true" : "false");
  rec += "},\"correct\":" + std::string(failed_ == 0 ? "true" : "false");
  rec += ",\"attempted\":" + std::to_string(attempted_);
  rec += ",\"failed\":" + std::to_string(failed_);
  rec += ",\"setup_s\":" + NumberArray(setup_s_);
  rec += ",\"pass_s\":" + NumberArray(pass_s_);
  rec += ",\"traced_pass_s\":" + NumberArray(traced_pass_s_);
  rec += ",\"digests\":{";
  for (const auto& [key, digest] : references_) {
    if (rec.back() != '{') rec += ",";
    json::AppendString(rec, key);
    rec += ":";
    json::AppendString(rec, digest);
  }
  return rec + "},\"metrics\":" + MetricsJson(values_, std::nullopt) + "}\n";
}

int Run::Finish() {
  values_["setup_s"] = Median(setup_s_);
  values_["pass_p50_s"] = Median(pass_s_);
  values_["pass_samples"] = static_cast<double>(pass_s_.size());
  values_["peak_rss_mb"] = PeakRssMiB();
  if (config_.trace && !pass_s_.empty() && !traced_pass_s_.empty())
    values_["trace_overhead_pct"] =
        (Median(traced_pass_s_) / Median(pass_s_) - 1.0) * 100.0;
  try {
    CheckGolden();
    if (config_.trace && !config_.trace_file.empty()) {
      Tracer::Get().WriteChrome(config_.trace_file);
      std::printf("trace: %s\n", config_.trace_file.c_str());
    }
    if (!config_.record_file.empty())
      WriteFile(config_.record_file, RecordJson(), /*append=*/true);
  } catch (const std::exception& e) {
    Fail(e.what());
  }

  const bool correct = failed_ == 0;
  std::printf("%s seed %llu%s: %s, %llu attempted, %llu failed\n",
              config_.workload.c_str(),
              static_cast<unsigned long long>(config_.seed),
              config_.trace ? " (traced)" : "",
              correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (const MetricDef& def : kMetrics) {
    const auto it = values_.find(def.name);
    if (it == values_.end()) continue;
    if (def.kind == Kind::kLayer && !config_.trace) continue;
    std::printf("  %-32s %14.6g %s\n", def.name, it->second, def.unit);
  }
  for (size_t i = 0; i < failures_.size() && i < 20; ++i)
    std::fprintf(stderr, "FAIL %s\n", failures_[i].c_str());

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<uint64_t>(attempted_, 1)),
              static_cast<unsigned long long>(failed_),
              MetricsJson(values_,
                          config_.trace ? Kind::kLayer : Kind::kEndToEnd)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace stemroot::bench
