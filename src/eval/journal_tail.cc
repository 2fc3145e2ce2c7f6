#include "eval/journal_tail.h"

#include <chrono>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "common/journal.h"
#include "common/json.h"
#include "common/str.h"

namespace stemroot::eval {

namespace {

void AppendFieldValue(std::string& out, const json::Value& value) {
  switch (value.kind) {
    case json::Value::Kind::kString:
      out += '"';
      out += value.string;
      out += '"';
      break;
    case json::Value::Kind::kNumber:
      out += json::Number(value.number);
      break;
    case json::Value::Kind::kBool:
      out += value.number != 0.0 ? "true" : "false";
      break;
    default:
      out += "<non-scalar>";
      break;
  }
}

}  // namespace

int SeverityRank(std::string_view severity) {
  if (severity == "debug") return 0;
  if (severity == "info") return 1;
  if (severity == "warn") return 2;
  if (severity == "error") return 3;
  return -1;
}

bool FormatJournalLine(std::string_view line,
                       const JournalTailOptions& options, std::string& out) {
  const std::optional<journal::Line> event = journal::ReadLine(line);
  if (!event)
    throw std::invalid_argument("journal line is not a JSON object");
  const std::string severity = event->sev.value_or("");
  const std::string name = event->event.value_or("");

  if (!options.min_severity.empty()) {
    const int floor = SeverityRank(options.min_severity);
    const int rank = SeverityRank(severity);
    // Unknown/missing severities always pass: hiding them would hide
    // exactly the malformed events a human is tailing for.
    if (rank >= 0 && floor >= 0 && rank < floor) return false;
  }
  if (!options.event.empty() && name != options.event) return false;

  out = Format("[%14.6fs] %-5s %-18s",
               static_cast<double>(event->ts_us.value_or(0)) / 1e6,
               severity.empty() ? "?" : severity.c_str(),
               name.empty() ? "?" : name.c_str());
  for (const auto& [key, value] : event->fields) {
    out += ' ';
    out += key;
    out += '=';
    AppendFieldValue(out, value);
  }
  if (event->dropped_since_last.value_or(0) > 0)
    out += Format(" [+%llu dropped]", static_cast<unsigned long long>(
                                          *event->dropped_since_last));
  if (event->seq)
    out += Format("  (seq %llu)", static_cast<unsigned long long>(*event->seq));
  return true;
}

JournalTailResult TailJournal(const std::string& path,
                              const JournalTailOptions& options,
                              std::ostream& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("journal tail: cannot open '" + path + "'");

  JournalTailResult result;
  std::string carry;  // partial line held back until its newline arrives
  uint64_t idle_polls = 0;
  char chunk[4096];

  const auto consume = [&](std::string_view line) {
    if (line.empty()) return;
    std::string rendered;
    try {
      if (FormatJournalLine(line, options, rendered)) {
        out << rendered << '\n';
        ++result.printed;
      } else {
        ++result.filtered;
      }
    } catch (const std::invalid_argument&) {
      ++result.unparseable;  // torn tail / corruption; never fatal
    }
  };

  while (true) {
    in.read(chunk, sizeof(chunk));
    const std::streamsize n = in.gcount();
    if (n > 0) {
      idle_polls = 0;
      carry.append(chunk, static_cast<size_t>(n));
      size_t start = 0;
      for (size_t pos = carry.find('\n'); pos != std::string::npos;
           pos = carry.find('\n', start)) {
        consume(std::string_view(carry).substr(start, pos - start));
        start = pos + 1;
      }
      carry.erase(0, start);
      continue;
    }
    if (!options.follow) break;
    if (options.max_idle_polls > 0 && ++idle_polls > options.max_idle_polls)
      break;
    in.clear();  // clear EOF so the next read sees appended bytes
    std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
  }
  // A final line without a trailing newline is either a torn append
  // (counted unparseable by consume) or a complete line from a writer
  // that does not terminate its last record -- render either way.
  consume(carry);
  return result;
}

}  // namespace stemroot::eval
