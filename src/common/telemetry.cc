#include "common/telemetry.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>

#include "common/trace_events.h"

namespace stemroot::telemetry {

namespace {

struct SpanAgg {
  uint64_t count = 0;
  double total_us = 0.0;

  void Add(double us) {
    ++count;
    total_us += us;
  }

  void Merge(const SpanAgg& other) {
    count += other.count;
    total_us += other.total_us;
  }
};

using SpanKey = std::pair<std::string, std::string>;  // (name, parent)

}  // namespace

/// One thread's private staging area, or one sink's aggregate. A thread
/// buffer's mutex is uncontended on the hot path (only Capture/Reset from
/// another thread ever take it); a sink's is shared by the lanes of the
/// scopes on it.
struct Buffer {
  std::mutex mu;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::vector<double>> values;
  std::map<SpanKey, SpanAgg> spans;

  void Count(std::string_view name, uint64_t delta) {
    std::lock_guard<std::mutex> lock(mu);
    counters[std::string(name)] += delta;
  }
  void Record(std::string_view name, double value) {
    std::lock_guard<std::mutex> lock(mu);
    values[std::string(name)].push_back(value);
  }
  void AddSpan(const SpanKey& key, double us) {
    std::lock_guard<std::mutex> lock(mu);
    spans[key].Add(us);
  }
};

namespace {

/// Central aggregate + the list of live thread buffers. Leaked on purpose:
/// worker threads may outlive static destruction order, and their
/// thread_local handles must always find a live registry.
struct Registry {
  std::atomic<bool> enabled{false};
  std::mutex mu;  ///< guards buffers + the central maps below
  std::vector<std::shared_ptr<Buffer>> buffers;
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
void DrainLocked(Buffer& buf, Registry& reg) {
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
  std::shared_ptr<Buffer> buf;

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

Buffer& LocalBuffer() {
  thread_local TlsHandle handle;
  if (!handle.buf) {
    handle.buf = std::make_shared<Buffer>();
    Registry& reg = Reg();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.buffers.push_back(handle.buf);
  }
  return *handle.buf;
}

/// The target of a muted thread: an address no recording ever reaches.
Buffer* Muted() {
  static Buffer* muted = new Buffer;
  return muted;
}

/// The calling thread's scope target: nullptr outside every scope,
/// Muted() under Scope(nullptr), else the sink's buffer.
thread_local Buffer* tls_target = nullptr;

/// Whether the calling thread records: telemetry on and not muted.
bool Recording() { return Enabled() && tls_target != Muted(); }

/// Innermost open span names of the current thread (for parent lookup).
thread_local std::vector<std::string>* tls_span_stack = nullptr;

std::vector<std::string>& SpanStack() {
  // Leaked per-thread vector: spans can close during thread_local
  // destruction; a plain thread_local vector could already be gone.
  if (tls_span_stack == nullptr)
    tls_span_stack = new std::vector<std::string>;
  return *tls_span_stack;
}

/// Distributions merge deterministically as a sorted multiset: the value
/// *set* is schedule-invariant even though arrival order is not.
std::map<std::string, std::vector<double>> SortedValues(
    std::map<std::string, std::vector<double>> values) {
  for (auto& [name, vals] : values) std::sort(vals.begin(), vals.end());
  return values;
}

std::map<SpanKey, SpanStats> ToSpanStats(
    const std::map<SpanKey, SpanAgg>& spans) {
  std::map<SpanKey, SpanStats> out;
  for (const auto& [key, agg] : spans) {
    SpanStats& stats = out[key];
    stats.name = key.first;
    stats.parent = key.second;
    stats.count = agg.count;
    stats.total_us = agg.total_us;
  }
  return out;
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

}  // namespace

void SetEnabled(bool enabled) {
  Reg().enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return Reg().enabled.load(std::memory_order_relaxed); }

void Count(std::string_view name, uint64_t delta) {
  if (!Recording()) return;
  LocalBuffer().Count(name, delta);
  if (tls_target != nullptr) tls_target->Count(name, delta);
}

void Record(std::string_view name, double value) {
  if (!Recording()) return;
  if (!std::isfinite(value)) return;
  LocalBuffer().Record(name, value);
  if (tls_target != nullptr) tls_target->Record(name, value);
}

Sink::Sink() : buffer_(std::make_unique<Buffer>()) {}
Sink::~Sink() = default;

Scope::Scope(Sink* sink) : saved_(tls_target) {
  tls_target = sink != nullptr ? sink->buffer_.get() : Muted();
}

Scope::Scope(Target target) : saved_(tls_target) {
  tls_target = target.buffer_;
}

Scope::~Scope() { tls_target = saved_; }

Target Scope::Current() {
  Target target;
  target.buffer_ = tls_target;
  return target;
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
  sink_ = tls_target;
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
  const SpanKey key(name_, parent_);
  LocalBuffer().AddSpan(key, us);
  if (sink_ != nullptr) sink_->AddSpan(key, us);
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

std::map<std::string, DistSummary> Snapshot::Summaries() const {
  std::map<std::string, DistSummary> out;
  for (const auto& [name, vals] : values_) out[name] = Summarize(vals);
  return out;
}

Snapshot Capture() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (const std::shared_ptr<Buffer>& buf : reg.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    DrainLocked(*buf, reg);
  }
  Snapshot snap;
  snap.counters_ = reg.counters;
  snap.values_ = SortedValues(reg.values);
  snap.spans_ = ToSpanStats(reg.spans);
  return snap;
}

Snapshot Sink::Capture() const {
  std::lock_guard<std::mutex> lock(buffer_->mu);
  Snapshot snap;
  snap.counters_ = buffer_->counters;
  snap.values_ = SortedValues(buffer_->values);
  snap.spans_ = ToSpanStats(buffer_->spans);
  return snap;
}

void Reset() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (const std::shared_ptr<Buffer>& buf : reg.buffers) {
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
