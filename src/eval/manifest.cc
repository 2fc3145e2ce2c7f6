#include "eval/manifest.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/cache.h"
#include "common/json.h"
#include "common/str.h"
#include "eval/stage_report.h"

namespace stemroot::eval {

namespace {

std::string U64(uint64_t v) {
  return Format("%llu", static_cast<unsigned long long>(v));
}

/// Serialization helper carrying the pretty/compact convention: pretty
/// mode indents nested lines by two spaces per level, compact mode emits
/// everything on one line (the ledger encoding).
struct Writer {
  std::string out;
  bool pretty;
  int depth = 0;

  void NewLine() {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<size_t>(depth) * 2, ' ');
  }
  void Key(std::string_view name) {
    json::AppendString(out, name);
    out += pretty ? ": " : ":";
  }
  void Field(std::string_view name, const std::string& raw_value) {
    NewLine();
    Key(name);
    out += raw_value;
  }
  void StringField(std::string_view name, std::string_view value) {
    NewLine();
    Key(name);
    json::AppendString(out, value);
  }
  void Comma() { out += ','; }
};

bool SchemaFail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = "manifest schema: " + why;
  return false;
}

const json::Value* Need(const json::Value& obj, std::string_view key,
                        json::Value::Kind kind, std::string* error,
                        const std::string& where) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr || v->kind != kind) {
    SchemaFail(error, where + " lacks required field \"" + std::string(key) +
                          "\" of the right type");
    return nullptr;
  }
  return v;
}

bool GetStringField(const json::Value& obj, std::string_view key,
                    std::string& out, std::string* error,
                    const std::string& where) {
  const json::Value* v =
      Need(obj, key, json::Value::Kind::kString, error, where);
  if (v == nullptr) return false;
  out = v->string;
  return true;
}

bool GetNumberField(const json::Value& obj, std::string_view key, double& out,
                    std::string* error, const std::string& where) {
  const json::Value* v =
      Need(obj, key, json::Value::Kind::kNumber, error, where);
  if (v == nullptr) return false;
  out = v->number;
  return true;
}

/// A count field: a whole number in [0, 2^53], the journal::ReadLine rule.
bool GetUintField(const json::Value& obj, std::string_view key,
                  uint64_t& out, std::string* error, const std::string& where) {
  const json::Value* v =
      Need(obj, key, json::Value::Kind::kNumber, error, where);
  if (v == nullptr) return false;
  const std::optional<uint64_t> value = json::ExactUint(*v);
  if (!value)
    return SchemaFail(error, where + " \"" + std::string(key) +
                                 "\" is not a whole number in [0, 2^53]");
  out = *value;
  return true;
}

/// A config count: a GetUintField whole number that also fits its target
/// type, whose largest value is `max`.
bool GetCountField(const json::Value& obj, std::string_view key,
                   uint64_t max, uint64_t& out, std::string* error) {
  if (!GetUintField(obj, key, out, error, "config")) return false;
  if (out > max)
    return SchemaFail(error, "config \"" + std::string(key) + "\" " +
                                 U64(out) + " exceeds " + U64(max));
  return true;
}

bool GetBoolField(const json::Value& obj, std::string_view key, bool& out,
                  std::string* error, const std::string& where) {
  const json::Value* v = Need(obj, key, json::Value::Kind::kBool, error, where);
  if (v == nullptr) return false;
  out = v->number != 0.0;
  return true;
}

}  // namespace

std::string RunManifest::ToJson(bool pretty) const {
  Writer w{.out = {}, .pretty = pretty};
  w.out += '{';
  ++w.depth;

  w.StringField("schema", kManifestSchema);
  w.Comma();
  w.StringField("tool", tool);
  w.Comma();
  w.StringField("command", command);
  w.Comma();
  w.Field("completed", completed ? "true" : "false");
  w.Comma();
  w.Field("build", BuildInfoJson(build));
  w.Comma();

  {
    std::string cfg = "{\"suite\":";
    json::AppendString(cfg, config.suite);
    cfg += ",\"workload\":";
    json::AppendString(cfg, config.workload);
    cfg += ",\"gpu\":";
    json::AppendString(cfg, config.gpu);
    cfg += ",\"method\":";
    json::AppendString(cfg, config.method);
    cfg += ",\"epsilon\":" + json::Number(config.epsilon);
    cfg += ",\"confidence\":" + json::Number(config.confidence);
    cfg += ",\"scale\":" + json::Number(config.scale);
    cfg += ",\"seed\":" + U64(config.seed);
    cfg += ",\"reps\":" + U64(config.reps);
    cfg += ",\"threads\":" + Format("%d", config.threads);
    // Only a legacy sharded manifest carries a lane count; writing it
    // back keeps that manifest's identity.
    if (config.sim_shards > 1)
      cfg += ",\"sim_shards\":" + U64(config.sim_shards);
    cfg += '}';
    w.Field("config", cfg);
  }
  w.Comma();
  w.Field("wall_time_seconds", json::Number(wall_time_seconds));
  w.Comma();

  w.NewLine();
  w.Key("stages");
  w.out += '[';
  ++w.depth;
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) w.Comma();
    w.NewLine();
    w.out += "{\"name\":";
    json::AppendString(w.out, stages[i].name);
    w.out += ",\"count\":" + U64(stages[i].count);
    w.out += ",\"total_us\":" + json::Number(stages[i].total_us);
    w.out += '}';
  }
  --w.depth;
  if (!stages.empty()) w.NewLine();
  w.out += ']';
  w.Comma();

  w.NewLine();
  w.Key("counters");
  w.out += '{';
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) w.Comma();
    first = false;
    json::AppendString(w.out, name);
    w.out += ':' + U64(value);
  }
  w.out += '}';

  if (metrics.present) {
    w.Comma();
    std::string m = "{\"error_pct\":" + json::Number(metrics.error_pct);
    m += ",\"theoretical_error_pct\":" +
         json::Number(metrics.theoretical_error_pct);
    m += ",\"speedup\":" + json::Number(metrics.speedup);
    m += ",\"num_samples\":" + U64(metrics.num_samples);
    m += ",\"num_clusters\":" + U64(metrics.num_clusters);
    m += '}';
    w.Field("metrics", m);
  }
  if (journal.present) {
    w.Comma();
    std::string j = "{\"emitted\":" + U64(journal.emitted);
    j += ",\"dropped\":" + U64(journal.dropped);
    j += ",\"errors\":" + U64(journal.errors);
    j += '}';
    w.Field("journal", j);
  }
  if (mem.present) {
    w.Comma();
    std::string b = "{\"peak_rss_bytes\":" + U64(mem.peak_rss_bytes);
    b += ",\"samples\":" + U64(mem.samples);
    b += ",\"logical\":{";
    bool first_cat = true;
    for (const auto& [category, bytes] : mem.logical) {
      if (!first_cat) b += ',';
      first_cat = false;
      json::AppendString(b, category);
      b += ':' + U64(bytes);
    }
    b += "}}";
    w.Field("mem", b);
  }
  if (trace_spill.present) {
    w.Comma();
    std::string t =
        "{\"chunk_invocations\":" + U64(trace_spill.chunk_invocations);
    t += ",\"chunks\":" + U64(trace_spill.chunks);
    t += ",\"bytes\":" + U64(trace_spill.bytes);
    t += '}';
    w.Field("trace_spill", t);
  }
  if (!error.empty()) {
    w.Comma();
    w.StringField("error", error);
  }

  --w.depth;
  w.NewLine();
  w.out += '}';
  if (pretty) w.out += '\n';
  return w.out;
}

bool RunManifest::FromJson(std::string_view text, RunManifest& out,
                           std::string* error) {
  json::Value root;
  if (!json::Parse(text, root, error)) return false;
  if (!root.IsObject())
    return SchemaFail(error, "top level is not an object");

  const json::Value* schema = root.Find("schema");
  if (schema == nullptr || !schema->IsString() ||
      schema->string != kManifestSchema)
    return SchemaFail(error, "missing or wrong \"schema\" tag (want " +
                                 std::string(kManifestSchema) + ")");

  RunManifest m;
  if (!GetStringField(root, "tool", m.tool, error, "manifest")) return false;
  if (!GetStringField(root, "command", m.command, error, "manifest"))
    return false;
  if (!GetBoolField(root, "completed", m.completed, error, "manifest"))
    return false;

  const json::Value* build =
      Need(root, "build", json::Value::Kind::kObject, error, "manifest");
  if (build == nullptr) return false;
  if (!GetStringField(*build, "git_hash", m.build.git_hash, error, "build") ||
      !GetBoolField(*build, "git_dirty", m.build.git_dirty, error, "build") ||
      !GetStringField(*build, "compiler", m.build.compiler, error, "build") ||
      !GetStringField(*build, "build_type", m.build.build_type, error,
                      "build") ||
      !GetStringField(*build, "sanitizer", m.build.sanitizer, error, "build"))
    return false;

  const json::Value* config =
      Need(root, "config", json::Value::Kind::kObject, error, "manifest");
  if (config == nullptr) return false;
  uint64_t reps = 0, threads = 0;
  if (!GetStringField(*config, "suite", m.config.suite, error, "config") ||
      !GetStringField(*config, "workload", m.config.workload, error,
                      "config") ||
      !GetStringField(*config, "gpu", m.config.gpu, error, "config") ||
      !GetStringField(*config, "method", m.config.method, error, "config") ||
      !GetNumberField(*config, "epsilon", m.config.epsilon, error, "config") ||
      !GetNumberField(*config, "confidence", m.config.confidence, error,
                      "config") ||
      !GetNumberField(*config, "scale", m.config.scale, error, "config") ||
      !GetCountField(*config, "reps", UINT32_MAX, reps, error) ||
      !GetCountField(*config, "threads", INT_MAX, threads, error))
    return false;
  m.config.reps = static_cast<uint32_t>(reps);
  m.config.threads = static_cast<int>(threads);
  // The seed is any uint64_t the CLI took: read its digits exactly rather
  // than through a double, which would round seeds above 2^53.
  const json::Value* seed =
      Need(*config, "seed", json::Value::Kind::kNumber, error, "config");
  if (seed == nullptr) return false;
  const std::optional<uint64_t> exact_seed = json::ExactUint64(*seed);
  if (!exact_seed)
    return SchemaFail(error,
                      "config \"seed\" is not a whole number in [0, 2^64)");
  m.config.seed = *exact_seed;
  // The retired sharded simulator's fields, written by older builds: each
  // is range-checked when present, and only a lane count > 1 (a sharded,
  // so different, model) is kept. One lane was the serial simulator.
  uint64_t sim_shards = 0, unused = 0;
  if ((config->Find("sim_shards") != nullptr &&
       !GetCountField(*config, "sim_shards", UINT32_MAX, sim_shards,
                      error)) ||
      (config->Find("sim_threads") != nullptr &&
       !GetCountField(*config, "sim_threads", INT_MAX, unused, error)) ||
      (config->Find("epoch_cycles") != nullptr &&
       !GetUintField(*config, "epoch_cycles", unused, error, "config")))
    return false;
  if (sim_shards > 1) m.config.sim_shards = static_cast<uint32_t>(sim_shards);

  if (!GetNumberField(root, "wall_time_seconds", m.wall_time_seconds, error,
                      "manifest"))
    return false;
  if (m.wall_time_seconds < 0.0)
    return SchemaFail(error, "negative wall_time_seconds");

  const json::Value* stages =
      Need(root, "stages", json::Value::Kind::kArray, error, "manifest");
  if (stages == nullptr) return false;
  for (const json::Value& entry : *stages->array) {
    if (!entry.IsObject())
      return SchemaFail(error, "stage entry is not an object");
    Stage stage;
    if (!GetStringField(entry, "name", stage.name, error, "stage") ||
        !GetUintField(entry, "count", stage.count, error, "stage") ||
        !GetNumberField(entry, "total_us", stage.total_us, error, "stage"))
      return false;
    m.stages.push_back(std::move(stage));
  }

  const json::Value* counters =
      Need(root, "counters", json::Value::Kind::kObject, error, "manifest");
  if (counters == nullptr) return false;
  for (const auto& [name, value] : *counters->object) {
    const std::optional<uint64_t> count = json::ExactUint(value);
    if (!count)
      return SchemaFail(error, "counter \"" + name +
                                   "\" is not a whole number in [0, 2^53]");
    m.counters[name] = *count;
  }

  if (const json::Value* metrics = root.Find("metrics")) {
    if (!metrics->IsObject())
      return SchemaFail(error, "\"metrics\" is not an object");
    if (!GetNumberField(*metrics, "error_pct", m.metrics.error_pct, error,
                        "metrics") ||
        !GetNumberField(*metrics, "theoretical_error_pct",
                        m.metrics.theoretical_error_pct, error, "metrics") ||
        !GetNumberField(*metrics, "speedup", m.metrics.speedup, error,
                        "metrics") ||
        !GetUintField(*metrics, "num_samples", m.metrics.num_samples, error,
                      "metrics") ||
        !GetUintField(*metrics, "num_clusters", m.metrics.num_clusters, error,
                      "metrics"))
      return false;
    m.metrics.present = true;
  }

  if (const json::Value* journal = root.Find("journal")) {
    if (!journal->IsObject())
      return SchemaFail(error, "\"journal\" is not an object");
    if (!GetUintField(*journal, "emitted", m.journal.emitted, error,
                      "journal") ||
        !GetUintField(*journal, "dropped", m.journal.dropped, error,
                      "journal") ||
        !GetUintField(*journal, "errors", m.journal.errors, error, "journal"))
      return false;
    m.journal.present = true;
  }

  if (const json::Value* mem = root.Find("mem")) {
    if (!mem->IsObject())
      return SchemaFail(error, "\"mem\" is not an object");
    if (!GetUintField(*mem, "peak_rss_bytes", m.mem.peak_rss_bytes, error,
                      "mem") ||
        !GetUintField(*mem, "samples", m.mem.samples, error, "mem"))
      return false;
    const json::Value* logical =
        Need(*mem, "logical", json::Value::Kind::kObject, error, "mem");
    if (logical == nullptr) return false;
    for (const auto& [category, value] : *logical->object) {
      const std::optional<uint64_t> bytes = json::ExactUint(value);
      if (!bytes)
        return SchemaFail(error, "mem logical \"" + category +
                                     "\" is not a whole number in [0, 2^53]");
      m.mem.logical[category] = *bytes;
    }
    m.mem.present = true;
  }

  if (const json::Value* spill = root.Find("trace_spill")) {
    if (!spill->IsObject())
      return SchemaFail(error, "\"trace_spill\" is not an object");
    if (!GetUintField(*spill, "chunk_invocations",
                      m.trace_spill.chunk_invocations, error, "trace_spill") ||
        !GetUintField(*spill, "chunks", m.trace_spill.chunks, error,
                      "trace_spill") ||
        !GetUintField(*spill, "bytes", m.trace_spill.bytes, error,
                      "trace_spill"))
      return false;
    if (m.trace_spill.chunk_invocations < 1)
      return SchemaFail(error, "trace_spill chunk_invocations must be >= 1");
    m.trace_spill.present = true;
  }

  if (const json::Value* err = root.Find("error")) {
    if (!err->IsString())
      return SchemaFail(error, "\"error\" is not a string");
    m.error = err->string;
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
  stages.clear();
  const StageReport report = StageReport::FromSnapshot(snapshot);
  for (const StageReport::Stage& s : report.Stages())
    stages.push_back({s.name, s.count, s.total_us});
  counters = snapshot.Counters();
}

bool ValidateManifestJson(std::string_view text, std::string* error) {
  RunManifest ignored;
  return RunManifest::FromJson(text, ignored, error);
}

}  // namespace stemroot::eval
