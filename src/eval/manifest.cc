#include "eval/manifest.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/cache.h"
#include "common/json.h"
#include "common/str.h"
#include "common/table.h"
#include "eval/metrics.h"

namespace stemroot::eval {

namespace {

std::string U64(uint64_t v) {
  return Format("%llu", static_cast<unsigned long long>(v));
}

}  // namespace

const std::vector<std::string>& PipelineStageNames() {
  static const std::vector<std::string> kStages = {
      "generate", "profile", "cluster", "sample", "evaluate"};
  return kStages;
}

std::string RunManifest::ToJson(bool pretty) const {
  using Wrap = json::Writer::Wrap;
  json::Writer w(pretty ? json::Writer::Layout::kPretty
                        : json::Writer::Layout::kCompact);
  w.String("schema", kManifestSchema)
      .String("tool", tool)
      .String("command", command)
      .Bool("completed", completed);
  w.Object("build")
      .String("git_hash", build.git_hash)
      .Bool("git_dirty", build.git_dirty)
      .String("compiler", build.compiler)
      .String("build_type", build.build_type)
      .String("sanitizer", build.sanitizer)
      .End();
  w.Object("config")
      .String("suite", config.suite)
      .String("workload", config.workload)
      .String("gpu", config.gpu)
      .String("method", config.method)
      .Number("epsilon", config.epsilon)
      .Number("confidence", config.confidence)
      .Number("scale", config.scale)
      .Uint("seed", config.seed)
      .Uint("reps", config.reps)
      .Raw("threads", Format("%d", config.threads));
  // Only a legacy sharded manifest carries a lane count; writing it back
  // keeps that manifest's identity.
  if (config.sim_shards > 1) w.Uint("sim_shards", config.sim_shards);
  w.End();
  w.Number("wall_time_seconds", wall_time_seconds);
  w.Array("stages", Wrap::kLines);
  for (const Stage& stage : stages)
    w.Item()
        .String("name", stage.name)
        .Uint("count", stage.count)
        .Number("total_us", stage.total_us)
        .End();
  w.End();
  w.Object("counters");
  for (const auto& [name, value] : counters) w.Uint(name, value);
  w.End();
  if (!distributions.empty()) {
    w.Object("distributions");
    for (const auto& [name, d] : distributions)
      w.Object(name)
          .Uint("count", d.count)
          .Number("min", d.min)
          .Number("mean", d.mean)
          .Number("max", d.max)
          .Number("p50", d.p50)
          .Number("p99", d.p99)
          .End();
    w.End();
  }
  if (metrics.present)
    w.Object("metrics")
        .Number("error_pct", metrics.error_pct)
        .Number("theoretical_error_pct", metrics.theoretical_error_pct)
        .Number("speedup", metrics.speedup)
        .Uint("num_samples", metrics.num_samples)
        .Uint("num_clusters", metrics.num_clusters)
        .End();
  if (journal.present)
    w.Object("journal")
        .Uint("emitted", journal.emitted)
        .Uint("dropped", journal.dropped)
        .Uint("errors", journal.errors)
        .End();
  if (mem.present) {
    w.Object("mem")
        .Uint("peak_rss_bytes", mem.peak_rss_bytes)
        .Uint("samples", mem.samples)
        .Object("logical");
    for (const auto& [category, bytes] : mem.logical) w.Uint(category, bytes);
    w.End().End();
  }
  if (trace_spill.present)
    w.Object("trace_spill")
        .Uint("chunk_invocations", trace_spill.chunk_invocations)
        .Uint("chunks", trace_spill.chunks)
        .Uint("bytes", trace_spill.bytes)
        .End();
  if (!error.empty()) w.String("error", error);
  return w.Finish();
}

bool RunManifest::FromJson(std::string_view text, RunManifest& out,
                           std::string* error) {
  json::Value doc;
  if (!json::Parse(text, doc, error)) return false;
  RunManifest m;
  try {
    const json::Reader root(doc, "manifest");
    if (root.StringOr("schema", "") != kManifestSchema)
      throw std::invalid_argument("missing or wrong \"schema\" tag (want " +
                                  std::string(kManifestSchema) + ")");
    m.tool = root.String("tool");
    m.command = root.String("command");
    m.completed = root.Bool("completed");

    const json::Reader build = root.Object("build");
    m.build.git_hash = build.String("git_hash");
    m.build.git_dirty = build.Bool("git_dirty");
    m.build.compiler = build.String("compiler");
    m.build.build_type = build.String("build_type");
    m.build.sanitizer = build.String("sanitizer");

    const json::Reader config = root.Object("config");
    m.config.suite = config.String("suite");
    m.config.workload = config.String("workload");
    m.config.gpu = config.String("gpu");
    m.config.method = config.String("method");
    m.config.epsilon = config.Number("epsilon");
    m.config.confidence = config.Number("confidence");
    m.config.scale = config.Number("scale");
    // The seed is any uint64_t the CLI took: read its digits exactly
    // rather than through a double, which would round seeds above 2^53.
    m.config.seed = config.Uint64("seed");
    m.config.reps = static_cast<uint32_t>(config.Uint("reps", UINT32_MAX));
    m.config.threads = static_cast<int>(config.Uint("threads", INT_MAX));
    // The retired sharded simulator's fields, written by older builds:
    // each is range-checked when present, and only a lane count > 1 (a
    // sharded, so different, model) is kept. One lane was the serial
    // simulator.
    const uint64_t sim_shards = config.UintOr("sim_shards", 0, UINT32_MAX);
    config.UintOr("sim_threads", 0, INT_MAX);
    config.UintOr("epoch_cycles", 0);
    if (sim_shards > 1)
      m.config.sim_shards = static_cast<uint32_t>(sim_shards);

    m.wall_time_seconds = root.Number("wall_time_seconds");
    if (m.wall_time_seconds < 0.0)
      throw std::invalid_argument("negative wall_time_seconds");

    for (const json::Value& entry : root.Array("stages")) {
      const json::Reader stage(entry, "stage");
      m.stages.push_back({.name = stage.String("name"),
                          .count = stage.Uint64("count"),
                          .total_us = stage.Number("total_us")});
    }
    m.counters = root.Object("counters").UintMap();

    if (root.Has("distributions")) {
      for (const auto& [name, value] :
           root.Object("distributions").Members()) {
        const json::Reader d(value, "distribution '" + name + "'");
        m.distributions[name] = {.count = d.Uint64("count"),
                                 .min = d.Number("min"),
                                 .mean = d.Number("mean"),
                                 .max = d.Number("max"),
                                 .p50 = d.Number("p50"),
                                 .p99 = d.Number("p99")};
      }
    }
    if (root.Has("metrics")) {
      const json::Reader metrics = root.Object("metrics");
      m.metrics = {.present = true,
                   .error_pct = metrics.Number("error_pct"),
                   .theoretical_error_pct =
                       metrics.Number("theoretical_error_pct"),
                   .speedup = metrics.Number("speedup"),
                   .num_samples = metrics.Uint64("num_samples"),
                   .num_clusters = metrics.Uint64("num_clusters")};
    }
    if (root.Has("journal")) {
      const json::Reader journal = root.Object("journal");
      m.journal = {.present = true,
                   .emitted = journal.Uint64("emitted"),
                   .dropped = journal.Uint64("dropped"),
                   .errors = journal.Uint64("errors")};
    }
    if (root.Has("mem")) {
      const json::Reader mem = root.Object("mem");
      m.mem = {.present = true,
               .peak_rss_bytes = mem.Uint64("peak_rss_bytes"),
               .samples = mem.Uint64("samples"),
               .logical = mem.Object("logical").UintMap()};
    }
    if (root.Has("trace_spill")) {
      const json::Reader spill = root.Object("trace_spill");
      m.trace_spill = {.present = true,
                       .chunk_invocations =
                           spill.Uint64("chunk_invocations"),
                       .chunks = spill.Uint64("chunks"),
                       .bytes = spill.Uint64("bytes")};
      if (m.trace_spill.chunk_invocations < 1)
        throw std::invalid_argument(
            "trace_spill chunk_invocations must be >= 1");
    }
    m.error = root.StringOr("error", "");
  } catch (const std::invalid_argument& e) {
    if (error != nullptr) *error = std::string("manifest schema: ") + e.what();
    return false;
  }
  out = std::move(m);
  return true;
}

RunManifest RunManifest::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("manifest: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  RunManifest m;
  std::string error;
  if (!FromJson(buffer.str(), m, &error))
    throw std::runtime_error("manifest: " + path + ": " + error);
  return m;
}

void RunManifest::Save(const std::string& path) const {
  // Crash-safe write: the JSON lands in a same-directory temp file that is
  // atomically renamed over `path` only after a checked flush. A crash or
  // full disk mid-write leaves either the previous manifest or no file --
  // never a torn half-JSON that downstream tools (regress, compare, the
  // ledger) would choke on.
  const std::string tmp_path = UniqueTempPath(path);
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("manifest: cannot write " + tmp_path);
    out << ToJson(/*pretty=*/true);
    out.flush();
    if (!out) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
      throw std::runtime_error("manifest: write failed: " + tmp_path);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::error_code ignore;
    std::filesystem::remove(tmp_path, ignore);
    throw std::runtime_error("manifest: rename into " + path +
                             " failed: " + ec.message());
  }
}

std::string RunManifest::Fingerprint() const {
  std::string fp = tool;
  for (const std::string& part :
       {command, config.suite, config.workload, config.gpu, config.method,
        json::Number(config.epsilon), json::Number(config.confidence),
        json::Number(config.scale), U64(config.seed), U64(config.reps),
        Format("%d", config.threads)}) {
    fp += '|';
    fp += part;
  }
  // A legacy sharded manifest is a different model: its own series.
  if (config.sim_shards > 1) fp += "|sim_shards=" + U64(config.sim_shards);
  if (trace_spill.present) {
    // Spilling never changes results (chunked byte-identity contract)
    // but reshapes wall time and memory, so perf baselines split on the
    // chunk capacity. The spill's chunks/bytes are environmental
    // (cache-warmth-dependent reuse) and stay out.
    fp += "|trace_chunk_invocations=" + U64(trace_spill.chunk_invocations);
  }
  return fp;
}

const RunManifest::Stage* RunManifest::FindStage(std::string_view name) const {
  for (const Stage& stage : stages)
    if (stage.name == name) return &stage;
  return nullptr;
}

void RunManifest::FillFromSnapshot(const telemetry::Snapshot& snapshot) {
  std::map<std::string, Stage> by_name;
  for (const auto& [key, span] : snapshot.Spans()) {
    Stage& stage = by_name[span.name];
    stage.name = span.name;
    stage.count += span.count;
    stage.total_us += span.total_us;
  }
  stages.clear();
  for (const std::string& name : PipelineStageNames()) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) continue;
    stages.push_back(it->second);
    by_name.erase(it);
  }
  for (const auto& [name, stage] : by_name) stages.push_back(stage);
  counters = snapshot.Counters();
  distributions = snapshot.Summaries();
}

std::string RunManifest::StagesText() const {
  TextTable table({"Stage", "Spans", "Wall time", "Share"});
  table.SetTitle("Pipeline stage telemetry");
  double total = 0.0;
  for (const Stage& stage : stages) total += stage.total_us;
  for (const Stage& stage : stages)
    table.AddRow({stage.name, U64(stage.count), HumanDuration(stage.total_us),
                  total > 0.0
                      ? Format("%.1f%%", stage.total_us / total * 100.0)
                      : "-"});
  return table.Render();
}

void RunManifest::FillMetrics(const EvalResult& result) {
  metrics.present = true;
  metrics.error_pct = result.error_pct;
  metrics.theoretical_error_pct = result.theoretical_error_pct;
  metrics.speedup = result.speedup;
  metrics.num_samples = result.num_samples;
  metrics.num_clusters = result.num_clusters;
}

}  // namespace stemroot::eval
