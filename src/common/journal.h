/// \file
/// Append-only structured JSONL event journal — the durable narrative of
/// a resident run (DESIGN.md §14).
///
/// Telemetry answers "how much"; the journal answers "what happened,
/// when": session lifecycle, feed batches, convergence and early-stop
/// decisions, slow requests, connection errors. One JSON object per
/// line, append-only, crash-tolerant (a torn final line is ignored by
/// the reader), machine-gateable (`stemroot regress --journal`).
///
/// Event line shape (reserved keys first, then the caller's fields):
///
///   {"ts_us":1234,"tid":3,"seq":7,"sev":"warn","event":"request.slow",
///    "session":2,"verb":"feed","latency_us":312000.0}
///
/// - ts_us: MonotonicMicros() — the same clock that stamps stderr log
///   lines, so journal and log output correlate directly.
/// - tid: LogThreadId() — same id namespace as the log lines.
/// - seq: process-wide emission sequence number (gap-free for emitted
///   events; rate-limited drops do not consume numbers).
/// - sev: "debug" | "info" | "warn" | "error".
///
/// **Cost contract.** Off by default; every Emit first checks one relaxed
/// atomic and returns — the same contract as telemetry and trace events
/// (pinned by BM_InstrumentationOff). When on, Emit serializes outside
/// the writer lock and appends one line under it.
///
/// **Rate limiting.** A per-second token budget (default 2000 events/s)
/// bounds journal growth under pathological event storms; over-budget
/// events are counted, not written, and the next written event carries a
/// "dropped_since_last" field so the gap is visible in the file itself.
/// Error-severity events bypass the limiter (losing errors would defeat
/// the regress gate).
///
/// **Read side.** ReadLine is the one parser of the line format: `stemroot
/// validate journal` (ValidateJournal), `stemroot regress --journal`
/// (eval::SummarizeJournalFile) and `stemroot journal tail`
/// (eval::FormatJournalLine) all go through it.

#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"

namespace stemroot::journal {

enum class Severity { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Canonical lowercase token ("debug", "info", "warn", "error").
const char* SeverityName(Severity severity);

/// One typed field of an event. Construct from the key plus a string,
/// number, bool, or unsigned value; the emitter writes the matching JSON
/// type.
struct Field {
  enum class Kind { kString, kNumber, kUint, kBool };

  Field(std::string_view key, std::string_view value)
      : key(key), kind(Kind::kString), string(value) {}
  Field(std::string_view key, const char* value)
      : key(key), kind(Kind::kString), string(value) {}
  Field(std::string_view key, double value)
      : key(key), kind(Kind::kNumber), number(value) {}
  Field(std::string_view key, uint64_t value)
      : key(key), kind(Kind::kUint), uint_value(value) {}
  Field(std::string_view key, int value)
      : key(key), kind(Kind::kUint),
        uint_value(static_cast<uint64_t>(value < 0 ? 0 : value)) {}
  Field(std::string_view key, bool value)
      : key(key), kind(Kind::kBool), uint_value(value ? 1 : 0) {}

  std::string key;
  Kind kind;
  std::string string;
  double number = 0.0;
  uint64_t uint_value = 0;
};

/// Open (create or append to) the journal at `path` and enable emission.
/// Throws std::runtime_error when the file cannot be opened. Reopening
/// over a live journal closes the previous file first.
void Open(const std::string& path);

/// Flush, close, and disable. Safe when no journal is open.
void Close();

/// One relaxed atomic load — the hot-path guard.
bool Enabled();

/// Cap on non-error events written per wall-clock second (default 2000).
/// 0 disables the limiter entirely.
void SetRateLimit(uint64_t events_per_second);

/// Append one event (no-op when disabled). Thread-safe; never throws —
/// an I/O failure disables nothing but is counted in Stats().write_errors
/// and the journal keeps accepting events (best-effort by design).
void Emit(Severity severity, std::string_view event,
          std::initializer_list<Field> fields = {});

/// Emission counters since process start (not since Open, so tests can
/// assert across reopen cycles). All relaxed-atomic reads.
struct Stats {
  uint64_t emitted = 0;       ///< lines written
  uint64_t dropped = 0;       ///< rate-limited (never error severity)
  uint64_t errors = 0;        ///< error-severity events emitted
  uint64_t write_errors = 0;  ///< append failures (stream went bad)
};
Stats GetStats();

/// Reset the Stats() counters to zero (tests; the seq counter is not
/// reset — seq numbers stay unique for the process lifetime).
void ResetStats();

/// One journal line read back. Each reserved field is typed and absent
/// when the key is missing or its value is invalid: the integers must be
/// whole JSON numbers in [0, 2^53] (the range a double holds exactly),
/// the strings must be JSON strings. An invalid value also sets
/// `malformed`, so a hostile line can never pass for a well-formed one.
struct Line {
  std::optional<uint64_t> ts_us;
  std::optional<uint64_t> tid;
  std::optional<uint64_t> seq;
  std::optional<uint64_t> dropped_since_last;
  std::optional<std::string> sev;  ///< raw token; may be unknown
  std::optional<std::string> event;
  bool malformed = false;  ///< a reserved key held an invalid value
  json::Object fields;     ///< the caller's fields, in emit order

  /// Every key Emit always writes (ts_us, tid, seq, sev, event) is
  /// present and no reserved key is malformed.
  bool WellFormed() const {
    return ts_us && tid && seq && sev && event && !malformed;
  }
};

/// Parse one JSONL line; std::nullopt when it is not a JSON object (a
/// torn append or corruption).
std::optional<Line> ReadLine(std::string_view text);

/// Validate a whole journal: every line well formed with a known
/// severity, ts_us non-decreasing, seq gap-free, and every name in
/// `required_events` emitted at least once. Only a torn *final* line is
/// tolerated (a crash mid-append). On failure, `error` (when non-null)
/// gets a one-line reason with its 1-based line number.
bool ValidateJournal(std::string_view text,
                     const std::vector<std::string>& required_events,
                     std::string* error);

}  // namespace stemroot::journal
