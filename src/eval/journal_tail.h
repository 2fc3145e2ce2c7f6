/// \file
/// Human rendering of the structured event journal (`stemroot journal
/// tail`): one pretty line per JSONL event, with severity and event-name
/// filtering and an optional follow mode that polls for appended lines.
///
/// The renderer reads lines through common/journal.h's journal::ReadLine:
/// it shows the reserved fields (ts_us, sev, event, seq,
/// dropped_since_last) in fixed places and every other field as key=value
/// in emit order; an absent or invalid reserved field renders as "?" or
/// is left out. Torn tails and malformed lines -- a crash mid-append, a
/// truncated copy -- are counted, never fatal, matching
/// SummarizeJournalFile's tolerance.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace stemroot::eval {

struct JournalTailOptions {
  /// Minimum severity to print ("debug" | "info" | "warn" | "error";
  /// "" = everything). Events whose sev is missing or unknown always
  /// print -- an unparseable severity is itself worth seeing.
  std::string min_severity;
  /// Only print events with this exact event name ("" = all). This is
  /// the CLI's --verb filter: service journals name their events after
  /// the protocol verbs (session.open, request.slow, ...).
  std::string event;
  /// Keep polling for appended lines after EOF (tail -f).
  bool follow = false;
  uint64_t poll_ms = 200;  ///< follow polling cadence
  /// Follow gives up after this many consecutive empty polls (0 = poll
  /// until the stream breaks / forever). Tests bound it; the CLI leaves
  /// it 0 and stops on SIGINT like tail -f.
  uint64_t max_idle_polls = 0;
};

/// Totals of one TailJournal pass (printed lines, filtered-out lines,
/// malformed lines skipped).
struct JournalTailResult {
  uint64_t printed = 0;
  uint64_t filtered = 0;
  uint64_t unparseable = 0;
};

/// Severity ordering: debug=0, info=1, warn=2, error=3; -1 for anything
/// else. Mirrors journal::SeverityName's tokens.
int SeverityRank(std::string_view severity);

/// Render one journal JSONL line as the human view:
///
///   [      12.345678s] warn  mem_highwater  rss_bytes=123 ... (seq 5)
///
/// Returns true and fills `out` when the line passes the filters; false
/// when it is filtered out. Throws std::invalid_argument when the line is
/// not a JSON object -- TailJournal catches and counts.
bool FormatJournalLine(std::string_view line,
                       const JournalTailOptions& options, std::string& out);

/// Pretty-print the journal at `path` to `out`, filtering per `options`.
/// Throws std::runtime_error when the file cannot be opened. In follow
/// mode, keeps polling for appended lines (a partial final line is held
/// back until its newline arrives).
JournalTailResult TailJournal(const std::string& path,
                              const JournalTailOptions& options,
                              std::ostream& out);

}  // namespace stemroot::eval
