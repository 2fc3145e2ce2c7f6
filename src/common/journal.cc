#include "common/journal.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>

#include "common/log.h"

namespace stemroot::journal {

namespace {

/// Writer state. Leaked on purpose (like the telemetry registry): worker
/// threads may emit during static destruction, and the atomics must
/// outlive them.
struct State {
  std::atomic<bool> enabled{false};
  std::atomic<uint64_t> emitted{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> write_errors{0};
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> rate_limit{2000};

  std::mutex mu;  ///< guards everything below
  std::ofstream out;
  uint64_t window_start_us = 0;   ///< current rate-limit second
  uint64_t window_emitted = 0;    ///< non-error events in the window
  uint64_t dropped_unreported = 0;  ///< drops not yet surfaced in a line
};

State& S() {
  static State* state = new State;
  return *state;
}

constexpr Severity kSeverities[] = {Severity::kDebug, Severity::kInfo,
                                    Severity::kWarn, Severity::kError};

bool Fail(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
  return false;
}

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kDebug: return "debug";
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "info";
}

void Open(const std::string& path) {
  State& s = S();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.out.is_open()) s.out.close();
  s.out.open(path, std::ios::binary | std::ios::app);
  if (!s.out)
    throw std::runtime_error("journal: cannot open '" + path + "'");
  s.window_start_us = 0;
  s.window_emitted = 0;
  s.enabled.store(true, std::memory_order_release);
}

void Close() {
  State& s = S();
  s.enabled.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.out.is_open()) {
    s.out.flush();
    s.out.close();
  }
}

bool Enabled() { return S().enabled.load(std::memory_order_relaxed); }

void SetRateLimit(uint64_t events_per_second) {
  S().rate_limit.store(events_per_second, std::memory_order_relaxed);
}

void Emit(Severity severity, std::string_view event,
          std::initializer_list<Field> fields) {
  State& s = S();
  if (!s.enabled.load(std::memory_order_relaxed)) return;

  const uint32_t tid = LogThreadId();

  // Serialize outside the lock; seq is assigned only once the event is
  // admitted, so written seq numbers are gap-free.
  json::Writer body;
  body.String("sev", SeverityName(severity)).String("event", event);
  for (const Field& f : fields) {
    switch (f.kind) {
      case Field::Kind::kString: body.String(f.key, f.string); break;
      case Field::Kind::kNumber: body.Number(f.key, f.number); break;
      case Field::Kind::kUint: body.Uint(f.key, f.uint_value); break;
      case Field::Kind::kBool: body.Bool(f.key, f.uint_value != 0); break;
    }
  }
  const std::string members = body.Finish();

  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.out.is_open()) return;  // raced with Close
  // Stamped under the lock, so concurrent emitters cannot write their
  // lines out of timestamp order (readers require ts_us non-decreasing).
  const uint64_t ts_us = MonotonicMicros();

  // Token-bucket per wall-clock second. Errors always pass: the regress
  // gate counts them, so the limiter must never eat one.
  const uint64_t limit = s.rate_limit.load(std::memory_order_relaxed);
  if (limit > 0 && severity != Severity::kError) {
    if (ts_us - s.window_start_us >= 1000000) {
      s.window_start_us = ts_us;
      s.window_emitted = 0;
    }
    if (s.window_emitted >= limit) {
      s.dropped.fetch_add(1, std::memory_order_relaxed);
      ++s.dropped_unreported;
      return;
    }
    ++s.window_emitted;
  }

  json::Writer line;
  line.Uint("ts_us", ts_us)
      .Uint("tid", tid)
      .Uint("seq", s.seq.fetch_add(1, std::memory_order_relaxed))
      .Members(members);
  if (s.dropped_unreported > 0) {
    line.Uint("dropped_since_last", s.dropped_unreported);
    s.dropped_unreported = 0;
  }
  s.out << line.Finish() << '\n';
  if (severity == Severity::kError) {
    s.errors.fetch_add(1, std::memory_order_relaxed);
    s.out.flush();  // errors are the lines a crash must not lose
  }
  if (!s.out) {
    s.write_errors.fetch_add(1, std::memory_order_relaxed);
    s.out.clear();  // keep accepting events; best-effort by design
  } else {
    s.emitted.fetch_add(1, std::memory_order_relaxed);
  }
}

Stats GetStats() {
  State& s = S();
  Stats stats;
  stats.emitted = s.emitted.load(std::memory_order_relaxed);
  stats.dropped = s.dropped.load(std::memory_order_relaxed);
  stats.errors = s.errors.load(std::memory_order_relaxed);
  stats.write_errors = s.write_errors.load(std::memory_order_relaxed);
  return stats;
}

void ResetStats() {
  State& s = S();
  s.emitted.store(0, std::memory_order_relaxed);
  s.dropped.store(0, std::memory_order_relaxed);
  s.errors.store(0, std::memory_order_relaxed);
  s.write_errors.store(0, std::memory_order_relaxed);
}

std::optional<Line> ReadLine(std::string_view text) {
  json::Value value;
  if (!json::Parse(text, value, nullptr) || !value.IsObject())
    return std::nullopt;
  Line line;
  for (auto& [key, field] : *value.object) {
    std::optional<uint64_t>* uint_slot =
        key == "ts_us"                ? &line.ts_us
        : key == "tid"                ? &line.tid
        : key == "seq"                ? &line.seq
        : key == "dropped_since_last" ? &line.dropped_since_last
                                      : nullptr;
    std::optional<std::string>* string_slot =
        key == "sev" ? &line.sev : key == "event" ? &line.event : nullptr;
    if (uint_slot != nullptr) {
      *uint_slot = json::ExactUint(field);
      line.malformed |= !uint_slot->has_value();
    } else if (string_slot != nullptr) {
      if (field.IsString()) *string_slot = std::move(field.string);
      line.malformed |= !field.IsString();
    } else {
      line.fields.emplace_back(key, std::move(field));
    }
  }
  return line;
}

bool ValidateJournal(std::string_view text,
                     const std::vector<std::string>& required_events,
                     std::string* error) {
  std::set<std::string> seen_events;
  uint64_t last_ts = 0;
  std::optional<uint64_t> next_seq;
  size_t lineno = 0;
  for (size_t start = 0; start < text.size();) {
    const size_t end = std::min(text.find('\n', start), text.size());
    const std::string_view raw = text.substr(start, end - start);
    start = end + 1;
    ++lineno;
    if (raw.empty()) continue;
    const std::string where = "line " + std::to_string(lineno) + ": ";
    const std::optional<Line> line = ReadLine(raw);
    if (!line) {
      if (start >= text.size()) break;  // torn final line
      return Fail(error, where + "unparseable journal line");
    }
    if (!line->WellFormed())
      return Fail(error, where +
                             "missing or invalid reserved key "
                             "(ts_us/tid/seq/sev/event/dropped_since_last)");
    const std::string& sev = *line->sev;
    if (std::none_of(std::begin(kSeverities), std::end(kSeverities),
                     [&](Severity s) { return sev == SeverityName(s); }))
      return Fail(error, where + "unknown severity '" + sev + "'");
    if (*line->ts_us < last_ts)
      return Fail(error, where + "ts_us went backwards");
    last_ts = *line->ts_us;
    if (next_seq && *line->seq != *next_seq)
      return Fail(error, where + "seq gap (want " +
                             std::to_string(*next_seq) + ", got " +
                             std::to_string(*line->seq) + ")");
    next_seq = *line->seq + 1;
    seen_events.insert(*line->event);
  }
  for (const std::string& required : required_events)
    if (seen_events.count(required) == 0)
      return Fail(error, "required event '" + required + "' never emitted");
  return true;
}

}  // namespace stemroot::journal
