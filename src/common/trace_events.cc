#include "common/trace_events.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/json.h"
#include "common/str.h"

namespace stemroot::trace_events {

namespace {

enum class Phase : uint8_t { kBegin, kEnd, kInstant, kCounter };

struct Event {
  double ts_us = 0.0;
  Phase phase = Phase::kInstant;
  std::string name;
  double value = 0.0;  ///< counter events only
};

/// One thread's bounded staging ring. The mutex is uncontended on the hot
/// path (only Export/Reset from another thread ever take it).
struct ThreadRing {
  std::mutex mu;
  uint32_t tid = 0;            ///< registration-order id, stable per thread
  std::vector<Event> ring;     ///< capacity fixed at creation
  size_t next = 0;             ///< next write slot
  uint64_t written = 0;        ///< total events ever written

  uint64_t Dropped() const {
    return written > ring.size() ? written - ring.size() : 0;
  }
};

/// The live ring list. Rings are never removed on thread exit (their
/// events must survive into the export); Reset() clears contents but
/// keeps registrations. Leaked on purpose, like the telemetry registry:
/// worker threads may outlive static destruction order.
struct Registry {
  std::atomic<bool> enabled{false};
  std::atomic<size_t> capacity{65536};
  std::mutex mu;  ///< guards `rings`
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

Registry& Reg() {
  static Registry* registry = new Registry;
  return *registry;
}

ThreadRing& LocalRing() {
  thread_local std::shared_ptr<ThreadRing> ring;
  if (!ring) {
    ring = std::make_shared<ThreadRing>();
    Registry& reg = Reg();
    ring->ring.resize(reg.capacity.load(std::memory_order_relaxed));
    std::lock_guard<std::mutex> lock(reg.mu);
    ring->tid = static_cast<uint32_t>(reg.rings.size());
    reg.rings.push_back(ring);
  }
  return *ring;
}

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Reg().epoch)
      .count();
}

void Push(Phase phase, std::string_view name, double value) {
  ThreadRing& ring = LocalRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  Event& slot = ring.ring[ring.next];
  slot.ts_us = NowUs();
  slot.phase = phase;
  slot.name.assign(name.data(), name.size());
  slot.value = value;
  ring.next = (ring.next + 1) % ring.ring.size();
  ++ring.written;
}

const char* PhaseTag(Phase phase) {
  switch (phase) {
    case Phase::kBegin: return "B";
    case Phase::kEnd: return "E";
    case Phase::kInstant: return "i";
    case Phase::kCounter: return "C";
  }
  return "?";
}

}  // namespace

void SetEnabled(bool enabled) {
  Reg().enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return Reg().enabled.load(std::memory_order_relaxed); }

void SetRingCapacity(size_t events) {
  if (events == 0)
    throw std::invalid_argument("SetRingCapacity: capacity must be >= 1");
  Reg().capacity.store(events, std::memory_order_relaxed);
}

size_t RingCapacity() {
  return Reg().capacity.load(std::memory_order_relaxed);
}

void Begin(std::string_view name) {
  if (!Enabled()) return;
  Push(Phase::kBegin, name, 0.0);
}

void EndOpen(std::string_view name) { Push(Phase::kEnd, name, 0.0); }

void Instant(std::string_view name) {
  if (!Enabled()) return;
  Push(Phase::kInstant, name, 0.0);
}

void CounterValue(std::string_view name, double value) {
  if (!Enabled()) return;
  Push(Phase::kCounter, name, value);
}

Scope::Scope(std::string_view name) {
  if (!Enabled()) return;
  active_ = true;
  name_.assign(name.data(), name.size());
  Push(Phase::kBegin, name_, 0.0);
}

Scope::~Scope() {
  if (active_) EndOpen(name_);
}

Stats GetStats() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  Stats stats;
  for (const std::shared_ptr<ThreadRing>& ring : reg.rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    if (ring->written == 0) continue;
    ++stats.threads;
    stats.recorded += ring->written;
    stats.dropped += ring->Dropped();
  }
  return stats;
}

std::string ExportJson() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> reg_lock(reg.mu);

  uint64_t recorded = 0;
  uint64_t dropped = 0;
  uint64_t repaired = 0;
  // Copies: a ring's slots are rewritten in place once its lock drops.
  std::vector<std::pair<Event, uint32_t>> events;  // event, tid

  for (const std::shared_ptr<ThreadRing>& ring_ptr : reg.rings) {
    ThreadRing& ring = *ring_ptr;
    std::lock_guard<std::mutex> lock(ring.mu);
    if (ring.written == 0) continue;
    recorded += ring.written;
    dropped += ring.Dropped();

    // Chronological view of the ring: oldest retained event first.
    const size_t retained =
        std::min<uint64_t>(ring.written, ring.ring.size());
    std::vector<const Event*> ordered;
    ordered.reserve(retained);
    const size_t start =
        ring.written > ring.ring.size() ? ring.next : 0;
    for (size_t k = 0; k < retained; ++k)
      ordered.push_back(&ring.ring[(start + k) % ring.ring.size()]);

    // Repair pass: a drop removes the oldest prefix of a well-formed
    // per-thread sequence, so an E with an empty open stack lost its B
    // (skip it), and any B still open at the end has no E (skip it too).
    std::vector<char> emit(retained, 1);
    std::vector<size_t> open;
    for (size_t k = 0; k < retained; ++k) {
      if (ordered[k]->phase == Phase::kBegin) {
        open.push_back(k);
      } else if (ordered[k]->phase == Phase::kEnd) {
        if (open.empty()) {
          emit[k] = 0;
          ++repaired;
        } else {
          open.pop_back();
        }
      }
    }
    for (size_t k : open) {
      emit[k] = 0;
      ++repaired;
    }

    for (size_t k = 0; k < retained; ++k)
      if (emit[k]) events.emplace_back(*ordered[k], ring.tid);
  }

  // One event per line inside an otherwise compact document.
  json::Writer w(json::Writer::Layout::kPretty, json::Writer::Wrap::kInline);
  w.String("displayTimeUnit", "ms");
  w.Object("otherData")
      .String("schema", "stemroot-trace-v1")
      .Uint("recorded", recorded)
      .Uint("dropped", dropped)
      .Uint("repaired", repaired)
      .End();
  w.Array("traceEvents", json::Writer::Wrap::kLines);
  for (const auto& [e, tid] : events) {
    w.Item()
        .String("name", e.name)
        .String("ph", PhaseTag(e.phase))
        .Raw("ts", Format("%.3f", e.ts_us))
        .Uint("pid", 1)
        .Uint("tid", tid);
    if (e.phase == Phase::kInstant) w.String("s", "t");
    if (e.phase == Phase::kCounter)
      w.Object("args").Number("value", e.value).End();
    w.End();
  }
  return w.Finish();
}

void WriteTrace(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("WriteTrace: cannot open " + path);
  out << ExportJson();
  out.flush();
  if (!out) throw std::runtime_error("WriteTrace: write failed: " + path);
}

void Reset() {
  Registry& reg = Reg();
  const size_t capacity = reg.capacity.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (const std::shared_ptr<ThreadRing>& ring : reg.rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    ring->next = 0;
    ring->written = 0;
    // A capacity change between traces lands here: existing rings adopt
    // the new size once they are empty again.
    if (ring->ring.size() != capacity) {
      ring->ring.resize(capacity);
      ring->ring.shrink_to_fit();
    }
  }
}

namespace {

bool CheckFail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = "trace: " + why;
  return false;
}

}  // namespace

bool ValidateTraceJson(std::string_view json_text, std::string* error,
                       std::vector<std::string>* names, TraceInfo* info) {
  json::Value root;
  if (!json::Parse(json_text, root, error)) return false;

  if (!root.IsObject())
    return CheckFail(error, "top level is not an object");
  const json::Value* other = root.Find("otherData");
  if (other == nullptr || !other->IsObject())
    return CheckFail(error, "\"otherData\" missing or not an object");
  const json::Value* schema = other->Find("schema");
  if (schema == nullptr || !schema->IsString() ||
      schema->string != "stemroot-trace-v1")
    return CheckFail(error, "missing or wrong \"schema\" tag");
  for (const char* field : {"recorded", "dropped", "repaired"}) {
    const json::Value* v = other->Find(field);
    if (v == nullptr || !v->IsNumber())
      return CheckFail(error, std::string("otherData lacks numeric \"") +
                                  field + "\"");
  }

  const json::Value* events = root.Find("traceEvents");
  if (events == nullptr || !events->IsArray())
    return CheckFail(error, "\"traceEvents\" missing or not an array");

  // Per-(pid,tid) open-span stacks and last-seen timestamps.
  std::vector<std::pair<std::pair<double, double>,
                        std::vector<std::string>>> threads;  // key -> stack
  std::vector<std::pair<std::pair<double, double>, double>> last_ts;
  auto stack_of = [&](double pid, double tid) -> std::vector<std::string>& {
    for (auto& [key, stack] : threads)
      if (key.first == pid && key.second == tid) return stack;
    threads.push_back({{pid, tid}, {}});
    return threads.back().second;
  };

  size_t count = 0;
  for (const json::Value& event : *events->array) {
    ++count;
    if (!event.IsObject())
      return CheckFail(error, "event is not an object");
    const json::Value* name = event.Find("name");
    if (name == nullptr || !name->IsString())
      return CheckFail(error, "event lacks a string \"name\"");
    const json::Value* ph = event.Find("ph");
    if (ph == nullptr || !ph->IsString() ||
        (ph->string != "B" && ph->string != "E" && ph->string != "i" &&
         ph->string != "C"))
      return CheckFail(error, "event \"" + name->string +
                                  "\" has a bad \"ph\" phase");
    const json::Value* ts = event.Find("ts");
    const json::Value* pid = event.Find("pid");
    const json::Value* tid = event.Find("tid");
    if (ts == nullptr || !ts->IsNumber() || pid == nullptr ||
        !pid->IsNumber() || tid == nullptr || !tid->IsNumber())
      return CheckFail(error, "event \"" + name->string +
                                  "\" lacks numeric ts/pid/tid");

    // Monotonic per-thread timestamps.
    bool found = false;
    for (auto& [key, prev] : last_ts) {
      if (key.first != pid->number || key.second != tid->number) continue;
      found = true;
      if (ts->number < prev)
        return CheckFail(error,
                         Format("timestamp regression on tid %g at event "
                                "\"%s\" (%.3f < %.3f)",
                                tid->number, name->string.c_str(),
                                ts->number, prev));
      prev = ts->number;
    }
    if (!found) last_ts.push_back({{pid->number, tid->number}, ts->number});

    // Balanced, name-matched B/E nesting per thread.
    std::vector<std::string>& stack = stack_of(pid->number, tid->number);
    if (ph->string == "B") {
      stack.push_back(name->string);
    } else if (ph->string == "E") {
      if (stack.empty())
        return CheckFail(error, "end event \"" + name->string +
                                    "\" without a matching begin");
      if (stack.back() != name->string)
        return CheckFail(error, "end event \"" + name->string +
                                    "\" does not match open begin \"" +
                                    stack.back() + "\"");
      stack.pop_back();
    } else if (ph->string == "C") {
      const json::Value* args = event.Find("args");
      const json::Value* value =
          args != nullptr ? args->Find("value") : nullptr;
      if (value == nullptr || !value->IsNumber())
        return CheckFail(error, "counter event \"" + name->string +
                                    "\" lacks numeric args.value");
    }
    if (names != nullptr) names->push_back(name->string);
  }

  for (const auto& [key, stack] : threads)
    if (!stack.empty())
      return CheckFail(error, "begin event \"" + stack.back() +
                                  "\" is never closed");

  if (info != nullptr) {
    info->events = count;
    info->threads = threads.size();
  }
  return true;
}

}  // namespace stemroot::trace_events
