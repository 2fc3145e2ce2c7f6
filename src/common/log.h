/// \file
/// Leveled status logging: Warn and Inform print to stderr when the
/// global level admits them, and never stop execution.
///
/// Every emitted line carries a monotonic timestamp (seconds since the
/// process-wide epoch, first use of either the logger or the journal) and
/// a small sequential thread id:
///
///   warn: [12.345678 t3] message
///
/// The journal (common/journal.h) stamps its events from the same
/// MonotonicMicros()/LogThreadId() pair, so stderr lines and journal
/// events interleave on one clock and one thread-id namespace.

#pragma once

#include <cstdarg>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace stemroot {

/// Verbosity levels, increasing detail.
enum class LogLevel { kSilent = 0, kWarn = 1, kInform = 2, kDebug = 3 };

inline constexpr size_t kNumLogLevels = 4;

/// Set the process-global verbosity (default kWarn). All logging entry
/// points are thread-safe: the level is an atomic, and the stderr writes
/// are serialized so concurrent workers never interleave mid-line.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Parse a CLI-style level token (case-sensitive, the canonical lowercase
/// names); std::nullopt for unknown names.
std::optional<LogLevel> LogLevelFromName(std::string_view name);

/// printf-style status message at kInform level.
void Inform(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// printf-style warning at kWarn level.
void Warn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Format helper shared by the above (vsnprintf into a std::string).
std::string VFormat(const char* fmt, va_list args);

/// Microseconds on the process-wide monotonic clock. The epoch is the
/// first call from any subsystem (logger or journal), so all correlated
/// output shares one zero point. Thread-safe.
uint64_t MonotonicMicros();

/// Small sequential id of the calling thread (1 = first thread that ever
/// logged, usually main). Stable for the thread's lifetime; ids are never
/// reused within a process.
uint32_t LogThreadId();

}  // namespace stemroot
