#include "common/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

namespace stemroot {

namespace {
/// Level is read on every log call, possibly from many threads at once
/// (the parallel suite runner logs per-workload progress). A plain
/// relaxed atomic: no ordering is needed, only tear-free reads.
std::atomic<LogLevel> g_level{LogLevel::kWarn};

/// Serializes the actual stderr writes so messages from concurrent
/// workers never interleave mid-line.
std::mutex& EmitMutex() {
  static std::mutex mu;
  return mu;
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }

namespace {
constexpr const char* kLevelNames[kNumLogLevels] = {"silent", "warn",
                                                    "inform", "debug"};
}  // namespace

std::optional<LogLevel> LogLevelFromName(std::string_view name) {
  for (size_t i = 0; i < kNumLogLevels; ++i)
    if (name == kLevelNames[i]) return static_cast<LogLevel>(i);
  return std::nullopt;
}

std::string VFormat(const char* fmt, va_list args) {
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  if (needed < 0) return "<format error>";
  std::vector<char> buf(static_cast<size_t>(needed) + 1);
  std::vsnprintf(buf.data(), buf.size(), fmt, args);
  return std::string(buf.data(), static_cast<size_t>(needed));
}

uint64_t MonotonicMicros() {
  // The epoch is pinned by the first call (static init is thread-safe);
  // journal events and log lines therefore share one zero point.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

uint32_t LogThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace {
void Emit(const char* prefix, const char* fmt, va_list args) {
  const std::string msg = VFormat(fmt, args);  // format outside the lock
  // Stamp before taking the lock: the timestamp is of the event, not of
  // the stderr write.
  const uint64_t us = MonotonicMicros();
  const uint32_t tid = LogThreadId();
  std::lock_guard<std::mutex> lock(EmitMutex());
  std::fprintf(stderr, "%s[%llu.%06llu t%u] %s\n", prefix,
               static_cast<unsigned long long>(us / 1000000),
               static_cast<unsigned long long>(us % 1000000), tid,
               msg.c_str());
}
}  // namespace

void Inform(const char* fmt, ...) {
  if (GetLogLevel() < LogLevel::kInform) return;
  va_list args;
  va_start(args, fmt);
  Emit("info: ", fmt, args);
  va_end(args);
}

void Warn(const char* fmt, ...) {
  if (GetLogLevel() < LogLevel::kWarn) return;
  va_list args;
  va_start(args, fmt);
  Emit("warn: ", fmt, args);
  va_end(args);
}

}  // namespace stemroot
