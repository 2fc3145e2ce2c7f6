#include "common/resource.h"

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <mutex>
#include <sstream>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define STEMROOT_HAVE_RUSAGE 1
#endif

#include "common/journal.h"
#include "common/str.h"
#include "common/telemetry.h"

namespace stemroot::resource {

namespace {

// A new high-water mark is journal-worthy when it beats the last
// reported one by this factor (hysteresis: growth is logged in ~20%
// steps, not every page).
constexpr double kHighwaterStep = 1.2;

/// Logical category state. Charges land at coarse sites (per pipeline
/// stage, per rep, per lane build, per feed chunk), so one mutex around
/// the map is uncontended in practice and trivially TSan-clean. The
/// determinism argument needs no atomics: `current` never decreases, so
/// `peak` ends at the schedule-invariant total for Account() charges,
/// and max() over deterministic AccountPeak() values is
/// order-independent.
struct Category {
  uint64_t current = 0;
  uint64_t peak = 0;
};

struct AccountState {
  std::mutex mu;
  std::map<std::string, Category> categories;
};

AccountState& Accounts() {
  static AccountState* state = new AccountState;  // never destroyed
  return *state;
}

// Physical high-water state: monotonic atomics, CAS-max updates.
std::atomic<uint64_t> g_current_rss{0};
std::atomic<uint64_t> g_peak_rss{0};
std::atomic<uint64_t> g_samples{0};
std::atomic<uint64_t> g_reported_hwm{0};  ///< last journal-logged peak

std::mutex g_cpu_mu;
double g_user_cpu_seconds = 0.0;
double g_system_cpu_seconds = 0.0;

void FoldMax(std::atomic<uint64_t>& target, uint64_t value) {
  uint64_t seen = target.load(std::memory_order_relaxed);
  while (value > seen &&
         !target.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
  }
}

std::optional<std::string> ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// `count` units of `unit` bytes; std::nullopt for a negative count or a
/// product past 2^64 - 1 (malformed, like any other bad value).
std::optional<uint64_t> Bytes(int64_t count, uint64_t unit) {
  uint64_t bytes = 0;
  if (count < 0 ||
      __builtin_mul_overflow(static_cast<uint64_t>(count), unit, &bytes))
    return std::nullopt;
  return bytes;
}

/// Trimmed whitespace-separated tokens of `text` (the shape of both
/// proc files we parse).
std::vector<std::string_view> Tokens(std::string_view text) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' ||
            text[i] == '\r'))
      ++i;
    const size_t start = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\t' &&
           text[i] != '\n' && text[i] != '\r')
      ++i;
    if (i > start) out.push_back(text.substr(start, i - start));
  }
  return out;
}

uint64_t PageSize() {
#if defined(_SC_PAGESIZE)
  const long page = sysconf(_SC_PAGESIZE);
  if (page > 0) return static_cast<uint64_t>(page);
#endif
  return 4096;
}

/// Fold one observation into the monotonic process state and count it.
void FoldSample(const PhysicalSample& sample) {
  uint64_t rss = 0;
  if (sample.rss_bytes) rss = *sample.rss_bytes;
  if (rss > 0) {
    g_current_rss.store(rss, std::memory_order_relaxed);
    FoldMax(g_peak_rss, rss);
  }
  if (sample.hwm_bytes) FoldMax(g_peak_rss, *sample.hwm_bytes);
  if (sample.max_rss_bytes) FoldMax(g_peak_rss, *sample.max_rss_bytes);
  {
    std::lock_guard<std::mutex> lock(g_cpu_mu);
    if (sample.user_cpu_seconds > g_user_cpu_seconds)
      g_user_cpu_seconds = sample.user_cpu_seconds;
    if (sample.system_cpu_seconds > g_system_cpu_seconds)
      g_system_cpu_seconds = sample.system_cpu_seconds;
  }
  g_samples.fetch_add(1, std::memory_order_relaxed);

  // Memory-pressure journaling, slow-request-style: a warn event per
  // ~20% high-water step, never per page. regress gates journal errors
  // only, so warn is visible but safe.
  const uint64_t peak = g_peak_rss.load(std::memory_order_relaxed);
  uint64_t reported = g_reported_hwm.load(std::memory_order_relaxed);
  while (peak > 0 &&
         (reported == 0 ||
          static_cast<double>(peak) >=
              static_cast<double>(reported) * kHighwaterStep)) {
    if (g_reported_hwm.compare_exchange_weak(reported, peak,
                                             std::memory_order_relaxed)) {
      if (journal::Enabled())
        journal::Emit(journal::Severity::kWarn, "mem_highwater",
                      {{"rss_bytes", rss},
                       {"peak_rss_bytes", peak},
                       {"samples",
                        g_samples.load(std::memory_order_relaxed)}});
      break;
    }
  }
}

}  // namespace

void Account(std::string_view category, uint64_t bytes) {
  if (!telemetry::Enabled()) return;
  AccountState& state = Accounts();
  std::lock_guard<std::mutex> lock(state.mu);
  Category& cat = state.categories[std::string(category)];
  cat.current += bytes;
  if (cat.current > cat.peak) cat.peak = cat.current;
}

void AccountPeak(std::string_view category, uint64_t bytes) {
  if (!telemetry::Enabled()) return;
  AccountState& state = Accounts();
  std::lock_guard<std::mutex> lock(state.mu);
  Category& cat = state.categories[std::string(category)];
  if (bytes > cat.peak) cat.peak = bytes;
}

std::map<std::string, uint64_t> LogicalPeaks() {
  AccountState& state = Accounts();
  std::lock_guard<std::mutex> lock(state.mu);
  std::map<std::string, uint64_t> out;
  for (const auto& [name, cat] : state.categories) out[name] = cat.peak;
  return out;
}

void ResetAccounting() {
  AccountState& state = Accounts();
  std::lock_guard<std::mutex> lock(state.mu);
  state.categories.clear();
}

std::optional<uint64_t> ParseStatmRssBytes(std::string_view text,
                                           uint64_t page_size_bytes) {
  const std::vector<std::string_view> tokens = Tokens(text);
  if (tokens.size() < 2) return std::nullopt;
  const std::optional<int64_t> pages = ParseInt(tokens[1]);
  if (!pages) return std::nullopt;
  return Bytes(*pages, page_size_bytes);
}

StatusFields ParseStatusText(std::string_view text) {
  StatusFields out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    std::optional<uint64_t>* field = nullptr;
    std::string_view rest;
    if (StartsWith(line, "VmRSS:")) {
      field = &out.vm_rss_bytes;
      rest = line.substr(6);
    } else if (StartsWith(line, "VmHWM:")) {
      field = &out.vm_hwm_bytes;
      rest = line.substr(6);
    } else {
      continue;
    }
    // "   123456 kB" — the value is in kB; a missing unit is tolerated,
    // any other unit is malformed (absent, not fatal).
    const std::vector<std::string_view> tokens = Tokens(rest);
    if (tokens.empty() || (tokens.size() >= 2 && tokens[1] != "kB"))
      continue;
    const std::optional<int64_t> kb = ParseInt(tokens[0]);
    if (!kb) continue;
    if (const std::optional<uint64_t> bytes = Bytes(*kb, 1024)) *field = bytes;
  }
  return out;
}

PhysicalSample ReadProcFiles(const std::string& statm_path,
                             const std::string& status_path,
                             uint64_t page_size_bytes) {
  PhysicalSample sample;
  if (const std::optional<std::string> statm = ReadFileText(statm_path))
    sample.rss_bytes = ParseStatmRssBytes(*statm, page_size_bytes);
  if (const std::optional<std::string> status = ReadFileText(status_path)) {
    const StatusFields fields = ParseStatusText(*status);
    sample.hwm_bytes = fields.vm_hwm_bytes;
    // statm already gave current RSS; VmRSS is the fallback source.
    if (!sample.rss_bytes) sample.rss_bytes = fields.vm_rss_bytes;
  }
  return sample;
}

PhysicalSample SamplePhysical() {
  PhysicalSample sample =
      ReadProcFiles("/proc/self/statm", "/proc/self/status", PageSize());
#ifdef STEMROOT_HAVE_RUSAGE
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    // Linux reports ru_maxrss in kilobytes.
    if (usage.ru_maxrss > 0)
      sample.max_rss_bytes = static_cast<uint64_t>(usage.ru_maxrss) * 1024;
    sample.user_cpu_seconds =
        static_cast<double>(usage.ru_utime.tv_sec) +
        static_cast<double>(usage.ru_utime.tv_usec) / 1e6;
    sample.system_cpu_seconds =
        static_cast<double>(usage.ru_stime.tv_sec) +
        static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
  }
#endif
  FoldSample(sample);
  return sample;
}

uint64_t PeakRssBytes() {
  SamplePhysical();
  return g_peak_rss.load(std::memory_order_relaxed);
}

Stats GetStats() {
  Stats stats;
  stats.samples = g_samples.load(std::memory_order_relaxed);
  stats.current_rss_bytes = g_current_rss.load(std::memory_order_relaxed);
  stats.peak_rss_bytes = g_peak_rss.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_cpu_mu);
  stats.user_cpu_seconds = g_user_cpu_seconds;
  stats.system_cpu_seconds = g_system_cpu_seconds;
  return stats;
}

}  // namespace stemroot::resource
