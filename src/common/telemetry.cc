#include "common/telemetry.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>

#include "common/csv.h"
#include "common/json.h"
#include "common/str.h"
#include "common/trace_events.h"

namespace stemroot::telemetry {

namespace {

struct SpanAgg {
  uint64_t count = 0;
  double total_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;

  void Add(double us) {
    if (count == 0) {
      min_us = max_us = us;
    } else {
      min_us = std::min(min_us, us);
      max_us = std::max(max_us, us);
    }
    ++count;
    total_us += us;
  }

  void Merge(const SpanAgg& other) {
    if (other.count == 0) return;
    if (count == 0) {
      *this = other;
      return;
    }
    count += other.count;
    total_us += other.total_us;
    min_us = std::min(min_us, other.min_us);
    max_us = std::max(max_us, other.max_us);
  }
};

using SpanKey = std::pair<std::string, std::string>;  // (name, parent)

/// One thread's private staging area. The mutex is uncontended on the hot
/// path (only Capture/Reset from another thread ever take it).
struct ThreadBuffer {
  std::mutex mu;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::vector<double>> values;
  std::map<SpanKey, SpanAgg> spans;

  bool Empty() const {
    return counters.empty() && values.empty() && spans.empty();
  }
};

/// Central aggregate + the list of live thread buffers. Leaked on purpose:
/// worker threads may outlive static destruction order, and their
/// thread_local handles must always find a live registry.
struct Registry {
  std::atomic<bool> enabled{false};
  std::mutex mu;  ///< guards buffers + the central maps below
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::vector<double>> values;
  std::map<SpanKey, SpanAgg> spans;
};

Registry& Reg() {
  static Registry* registry = new Registry;
  return *registry;
}

/// Merge one buffer into the central maps (registry mutex already held by
/// the caller; the buffer's own mutex too). Clears the buffer.
void DrainLocked(ThreadBuffer& buf, Registry& reg) {
  for (const auto& [name, value] : buf.counters) reg.counters[name] += value;
  for (auto& [name, vals] : buf.values) {
    std::vector<double>& central = reg.values[name];
    central.insert(central.end(), vals.begin(), vals.end());
  }
  for (const auto& [key, agg] : buf.spans) reg.spans[key].Merge(agg);
  buf.counters.clear();
  buf.values.clear();
  buf.spans.clear();
}

/// Thread-exit hook: flush the buffer into the central aggregate and drop
/// it from the live list.
struct TlsHandle {
  std::shared_ptr<ThreadBuffer> buf;

  ~TlsHandle() {
    if (!buf) return;
    Registry& reg = Reg();
    std::lock_guard<std::mutex> reg_lock(reg.mu);
    {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      DrainLocked(*buf, reg);
    }
    std::erase(reg.buffers, buf);
  }
};

ThreadBuffer& LocalBuffer() {
  thread_local TlsHandle handle;
  if (!handle.buf) {
    handle.buf = std::make_shared<ThreadBuffer>();
    Registry& reg = Reg();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.buffers.push_back(handle.buf);
  }
  return *handle.buf;
}

/// Live ThreadMute guards on the current thread.
thread_local int tls_mute_depth = 0;

/// Whether the calling thread records: telemetry on and not muted.
bool Recording() { return Enabled() && tls_mute_depth == 0; }

/// Innermost open span names of the current thread (for parent lookup).
thread_local std::vector<std::string>* tls_span_stack = nullptr;

std::vector<std::string>& SpanStack() {
  // Leaked per-thread vector: spans can close during thread_local
  // destruction; a plain thread_local vector could already be gone.
  if (tls_span_stack == nullptr)
    tls_span_stack = new std::vector<std::string>;
  return *tls_span_stack;
}

DistSummary Summarize(const std::vector<double>& sorted) {
  DistSummary s;
  s.count = sorted.size();
  if (sorted.empty()) return s;
  s.min = sorted.front();
  s.max = sorted.back();
  double sum = 0.0;
  for (double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(sorted.size());
  auto quantile = [&sorted](double q) {
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(q * static_cast<double>(sorted.size())));
    return sorted[idx];
  };
  s.p50 = quantile(0.50);
  s.p99 = quantile(0.99);
  return s;
}

void AppendDistJson(std::string& out, const DistSummary& s) {
  out += Format("{\"count\":%llu,\"min\":",
                static_cast<unsigned long long>(s.count));
  out += json::Number(s.min);
  out += ",\"mean\":";
  out += json::Number(s.mean);
  out += ",\"max\":";
  out += json::Number(s.max);
  out += ",\"p50\":";
  out += json::Number(s.p50);
  out += ",\"p99\":";
  out += json::Number(s.p99);
  out += '}';
}

}  // namespace

void SetEnabled(bool enabled) {
  Reg().enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return Reg().enabled.load(std::memory_order_relaxed); }

ThreadMute::ThreadMute() { ++tls_mute_depth; }
ThreadMute::~ThreadMute() { --tls_mute_depth; }

void Count(std::string_view name, uint64_t delta) {
  if (!Recording()) return;
  ThreadBuffer& buf = LocalBuffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.counters[std::string(name)] += delta;
}

void Record(std::string_view name, double value) {
  if (!Recording()) return;
  if (!std::isfinite(value)) return;
  ThreadBuffer& buf = LocalBuffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.values[std::string(name)].push_back(value);
}

Span::Span(std::string_view name) {
  const bool telemetry_on = Recording();
  const bool tracing_on = trace_events::Enabled();
  if (!telemetry_on && !tracing_on) return;
  name_ = std::string(name);
  if (tracing_on) {
    traced_ = true;
    trace_events::Begin(name_);
  }
  if (!telemetry_on) return;
  active_ = true;
  std::vector<std::string>& stack = SpanStack();
  if (!stack.empty()) parent_ = stack.back();
  stack.push_back(name_);
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  // Balanced even if tracing was flipped off mid-span.
  if (traced_) trace_events::EndOpen(name_);
  if (!active_) return;
  const double us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start_)
          .count();
  // The stack entry was pushed at construction, so it must be popped no
  // matter what SetEnabled did since -- otherwise an outer span would
  // inherit a stale parent. Recording the aggregate, however, honors the
  // *current* switch: a span closing after SetEnabled(false) leaves no
  // trace in the next Capture().
  std::vector<std::string>& stack = SpanStack();
  if (!stack.empty() && stack.back() == name_) stack.pop_back();
  if (!Enabled()) return;
  ThreadBuffer& buf = LocalBuffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.spans[SpanKey(name_, parent_)].Add(us);
}

uint64_t Snapshot::Counter(std::string_view name) const {
  const auto it = counters_.find(std::string(name));
  return it == counters_.end() ? 0 : it->second;
}

DistSummary Snapshot::Dist(std::string_view name) const {
  const auto it = values_.find(std::string(name));
  return it == values_.end() ? DistSummary{} : Summarize(it->second);
}

bool Snapshot::HasSpan(std::string_view name) const {
  for (const auto& [key, stats] : spans_)
    if (key.first == name) return true;
  return false;
}

std::string Snapshot::CountersJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) out += ',';
    first = false;
    json::AppendString(out, name);
    out += Format(":%llu", static_cast<unsigned long long>(value));
  }
  out += '}';
  return out;
}

std::string Snapshot::DistributionsJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vals] : values_) {
    if (!first) out += ',';
    first = false;
    json::AppendString(out, name);
    out += ':';
    AppendDistJson(out, Summarize(vals));
  }
  out += '}';
  return out;
}

std::string Snapshot::ToJson() const {
  std::string out = "{\"schema\":\"stemroot-telemetry-v1\",\"counters\":";
  out += CountersJson();
  out += ",\"distributions\":";
  out += DistributionsJson();
  out += ",\"spans\":[";
  bool first = true;
  for (const auto& [key, stats] : spans_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    json::AppendString(out, stats.name);
    out += ",\"parent\":";
    json::AppendString(out, stats.parent);
    out += Format(",\"count\":%llu,\"total_us\":%.3f,\"min_us\":%.3f,"
                  "\"max_us\":%.3f}",
                  static_cast<unsigned long long>(stats.count),
                  stats.total_us, stats.min_us, stats.max_us);
  }
  out += "]}";
  return out;
}

std::string Snapshot::ToCsv() const {
  // Names are usually code-controlled identifiers, but nothing stops a
  // caller from embedding a comma or quote -- RFC 4180 quoting keeps the
  // export parseable regardless.
  std::string out = "kind,name,parent,count,min,mean,max,p50,p99,total\n";
  for (const auto& [name, value] : counters_) {
    out += "counter," + CsvWriter::Quote(name) + ",," +
           Format("%llu", static_cast<unsigned long long>(value)) +
           ",,,,,,\n";
  }
  for (const auto& [name, vals] : values_) {
    const DistSummary s = Summarize(vals);
    // FormatDouble, not %.17g: snprintf would write the global locale's
    // decimal point into the CSV cells.
    out += "distribution," + CsvWriter::Quote(name) + ",," +
           Format("%llu", static_cast<unsigned long long>(s.count)) + "," +
           FormatDouble(s.min) + "," + FormatDouble(s.mean) + "," +
           FormatDouble(s.max) + "," + FormatDouble(s.p50) + "," +
           FormatDouble(s.p99) + ",\n";
  }
  for (const auto& [key, stats] : spans_) {
    out += "span," + CsvWriter::Quote(stats.name) + "," +
           CsvWriter::Quote(stats.parent) + "," +
           Format("%llu", static_cast<unsigned long long>(stats.count)) +
           "," + FormatDoubleFixed(stats.min_us, 3) + ",," +
           FormatDoubleFixed(stats.max_us, 3) + ",,," +
           FormatDoubleFixed(stats.total_us, 3) + "\n";
  }
  return out;
}

Snapshot Capture() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (const std::shared_ptr<ThreadBuffer>& buf : reg.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    DrainLocked(*buf, reg);
  }
  Snapshot snap;
  snap.counters_ = reg.counters;
  snap.values_ = reg.values;
  // Distributions merge deterministically as a sorted multiset: the value
  // *set* is schedule-invariant even though arrival order is not.
  for (auto& [name, vals] : snap.values_)
    std::sort(vals.begin(), vals.end());
  for (const auto& [key, agg] : reg.spans) {
    SpanStats stats;
    stats.name = key.first;
    stats.parent = key.second;
    stats.count = agg.count;
    stats.total_us = agg.total_us;
    stats.min_us = agg.min_us;
    stats.max_us = agg.max_us;
    snap.spans_[key] = stats;
  }
  return snap;
}

Snapshot Sample() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  Snapshot snap;
  snap.counters_ = reg.counters;
  snap.values_ = reg.values;
  for (const auto& [key, agg] : reg.spans) {
    SpanStats stats;
    stats.name = key.first;
    stats.parent = key.second;
    stats.count = agg.count;
    stats.total_us = agg.total_us;
    stats.min_us = agg.min_us;
    stats.max_us = agg.max_us;
    snap.spans_[key] = stats;
  }
  // Overlay each live buffer without clearing it (the non-draining
  // contract). The buffer mutex is held only for the copy.
  for (const std::shared_ptr<ThreadBuffer>& buf : reg.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    for (const auto& [name, value] : buf->counters)
      snap.counters_[name] += value;
    for (const auto& [name, vals] : buf->values) {
      std::vector<double>& central = snap.values_[name];
      central.insert(central.end(), vals.begin(), vals.end());
    }
    for (const auto& [key, agg] : buf->spans) {
      SpanStats& stats = snap.spans_[key];
      stats.name = key.first;
      stats.parent = key.second;
      SpanAgg merged;
      merged.count = stats.count;
      merged.total_us = stats.total_us;
      merged.min_us = stats.min_us;
      merged.max_us = stats.max_us;
      merged.Merge(agg);
      stats.count = merged.count;
      stats.total_us = merged.total_us;
      stats.min_us = merged.min_us;
      stats.max_us = merged.max_us;
    }
  }
  for (auto& [name, vals] : snap.values_)
    std::sort(vals.begin(), vals.end());
  return snap;
}

std::map<std::string, uint64_t> CounterDeltas(const Snapshot& before,
                                              const Snapshot& after) {
  std::map<std::string, uint64_t> deltas;
  for (const auto& [name, value] : after.Counters()) {
    const uint64_t prior = before.Counter(name);
    if (value > prior) deltas[name] = value - prior;
  }
  return deltas;
}

void Reset() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (const std::shared_ptr<ThreadBuffer>& buf : reg.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->counters.clear();
    buf->values.clear();
    buf->spans.clear();
  }
  reg.counters.clear();
  reg.values.clear();
  reg.spans.clear();
}

}  // namespace stemroot::telemetry
