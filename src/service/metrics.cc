#include "service/metrics.h"

#include <cctype>
#include <cmath>
#include <sstream>

#include "common/str.h"

namespace stemroot::service {

namespace {

constexpr const char* kVerbNames[kNumVerbs] = {"open", "feed",  "query",
                                               "plan", "eval", "close"};

/// The service.* counters CloseSession writes into session manifests.
/// Sorted; keep in sync with service.cc and DESIGN.md §14.
constexpr std::string_view kRegisteredCounters[] = {
    "service.early_stops",
    "service.feed_invocations",
    "service.sessions",
};

/// One "name value" or "name{labels} value" sample line.
void Sample(std::string& out, std::string_view family,
            std::string_view labels, double value) {
  out += family;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += FormatDouble(value);
  out += '\n';
}

void Family(std::string& out, std::string_view name, std::string_view type) {
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

std::string VerbLabel(const VerbStats& v) {
  return Format("verb=\"%s\"", v.verb.c_str());
}

/// Logical mem categories become metric-name components: anything
/// outside [a-zA-Z0-9_] maps to '_' ("service.session" ->
/// "service_session"), keeping every emitted name exposition-legal.
std::string SanitizeCategory(std::string_view category) {
  std::string out;
  out.reserve(category.size());
  for (char c : category) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_' &&
      name[0] != ':')
    return false;
  for (char c : name)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':')
      return false;
  return true;
}

/// The process RSS high water only ratchets up, and the logical
/// per-category peaks are running maxima (common/resource.h), so these
/// gauges are held to the counter monotonicity rule.
bool IsMonotoneGauge(std::string_view family) {
  return family == "stemroot_process_hwm_bytes" ||
         family.starts_with("stemroot_mem_");
}

/// Bytes and tick counts have no meaningful negative value, gauge type
/// or not.
bool IsNonNegativeFamily(std::string_view family) {
  return family.starts_with("stemroot_process_") ||
         family.starts_with("stemroot_mem_");
}

/// The family a sample belongs to: its name minus the summary/histogram
/// component suffixes.
std::string FamilyOf(std::string_view name) {
  for (std::string_view suffix : {"_sum", "_count", "_bucket"})
    if (name.size() > suffix.size() && name.ends_with(suffix))
      return std::string(name.substr(0, name.size() - suffix.size()));
  return std::string(name);
}

bool Fail(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
  return false;
}

}  // namespace

const char* VerbName(Verb verb) {
  return kVerbNames[static_cast<size_t>(verb)];
}

void ServiceMetrics::RecordRequest(Verb verb, double latency_us, bool ok) {
  const size_t i = static_cast<size_t>(verb);
  requests_[i].fetch_add(1, std::memory_order_relaxed);
  if (!ok) errors_[i].fetch_add(1, std::memory_order_relaxed);
  latency_[i].Record(latency_us);
}

VerbStats ServiceMetrics::GetVerb(Verb verb) const {
  const LogHistogram& h = Latency(verb);
  VerbStats out;
  out.verb = VerbName(verb);
  out.requests = Requests(verb);
  out.errors = Errors(verb);
  out.total_us = h.Sum();
  out.mean_us = h.Mean();
  out.p50_us = h.Quantile(0.50);
  out.p90_us = h.Quantile(0.90);
  out.p99_us = h.Quantile(0.99);
  out.max_us = h.Max();
  return out;
}

std::vector<VerbStats> ServiceMetrics::AllVerbs() const {
  std::vector<VerbStats> out;
  out.reserve(kNumVerbs);
  for (size_t i = 0; i < kNumVerbs; ++i)
    out.push_back(GetVerb(static_cast<Verb>(i)));
  return out;
}

std::span<const std::string_view> RegisteredServiceCounters() {
  return kRegisteredCounters;
}

bool IsRegisteredServiceCounter(std::string_view name) {
  for (std::string_view registered : kRegisteredCounters)
    if (name == registered) return true;
  return false;
}

std::string PrometheusText(const ServiceStats& stats) {
  std::string out;
  out.reserve(4096);

  Family(out, "stemroot_service_uptime_seconds", "gauge");
  Sample(out, "stemroot_service_uptime_seconds", "", stats.uptime_seconds);
  Family(out, "stemroot_service_open_sessions", "gauge");
  Sample(out, "stemroot_service_open_sessions", "",
         static_cast<double>(stats.open_sessions));
  Family(out, "stemroot_service_max_sessions", "gauge");
  Sample(out, "stemroot_service_max_sessions", "",
         static_cast<double>(stats.max_sessions));

  Family(out, "stemroot_service_sessions_opened_total", "counter");
  Sample(out, "stemroot_service_sessions_opened_total", "",
         static_cast<double>(stats.sessions_opened));
  Family(out, "stemroot_service_sessions_closed_total", "counter");
  Sample(out, "stemroot_service_sessions_closed_total", "",
         static_cast<double>(stats.sessions_closed));
  Family(out, "stemroot_service_feed_invocations_total", "counter");
  Sample(out, "stemroot_service_feed_invocations_total", "",
         static_cast<double>(stats.feed_invocations));
  Family(out, "stemroot_service_early_stops_total", "counter");
  Sample(out, "stemroot_service_early_stops_total", "",
         static_cast<double>(stats.early_stops));

  Family(out, "stemroot_service_requests_total", "counter");
  for (const VerbStats& v : stats.verbs)
    Sample(out, "stemroot_service_requests_total", VerbLabel(v),
           static_cast<double>(v.requests));
  Family(out, "stemroot_service_request_errors_total", "counter");
  for (const VerbStats& v : stats.verbs)
    Sample(out, "stemroot_service_request_errors_total", VerbLabel(v),
           static_cast<double>(v.errors));

  // The latency summaries: quantile samples plus the _sum/_count pair,
  // per verb. Only verbs with traffic are emitted — a quantile of an
  // empty histogram is not 0, it is absent.
  Family(out, "stemroot_service_request_latency_us", "summary");
  for (const VerbStats& v : stats.verbs) {
    if (v.requests == 0) continue;
    const std::string label = VerbLabel(v);
    Sample(out, "stemroot_service_request_latency_us",
           label + ",quantile=\"0.5\"", v.p50_us);
    Sample(out, "stemroot_service_request_latency_us",
           label + ",quantile=\"0.9\"", v.p90_us);
    Sample(out, "stemroot_service_request_latency_us",
           label + ",quantile=\"0.99\"", v.p99_us);
    Sample(out, "stemroot_service_request_latency_us_sum", label,
           v.total_us);
    Sample(out, "stemroot_service_request_latency_us_count", label,
           static_cast<double>(v.requests));
  }
  Family(out, "stemroot_service_request_latency_max_us", "gauge");
  for (const VerbStats& v : stats.verbs) {
    if (v.requests == 0) continue;
    Sample(out, "stemroot_service_request_latency_max_us", VerbLabel(v),
           v.max_us);
  }

  // Process-resource families (DESIGN.md §15). RSS/HWM are byte gauges
  // (HWM is monotone by construction — CheckMonotonic enforces it across
  // scrapes); the physical sample count is a counter; the logical
  // per-category peaks are one family per category, also monotone.
  Family(out, "stemroot_process_rss_bytes", "gauge");
  Sample(out, "stemroot_process_rss_bytes", "",
         static_cast<double>(stats.process_rss_bytes));
  Family(out, "stemroot_process_hwm_bytes", "gauge");
  Sample(out, "stemroot_process_hwm_bytes", "",
         static_cast<double>(stats.process_hwm_bytes));
  Family(out, "stemroot_process_resource_samples_total", "counter");
  Sample(out, "stemroot_process_resource_samples_total", "",
         static_cast<double>(stats.resource_samples));
  Family(out, "stemroot_process_cpu_seconds_total", "counter");
  Sample(out, "stemroot_process_cpu_seconds_total", "mode=\"user\"",
         stats.process_cpu_user_seconds);
  Sample(out, "stemroot_process_cpu_seconds_total", "mode=\"system\"",
         stats.process_cpu_system_seconds);
  for (const auto& [category, bytes] : stats.mem_logical) {
    const std::string family =
        "stemroot_mem_" + SanitizeCategory(category) + "_bytes";
    Family(out, family, "gauge");
    Sample(out, family, "", static_cast<double>(bytes));
  }

  Family(out, "stemroot_journal_events_total", "counter");
  Sample(out, "stemroot_journal_events_total", "",
         static_cast<double>(stats.journal_emitted));
  Family(out, "stemroot_journal_dropped_total", "counter");
  Sample(out, "stemroot_journal_dropped_total", "",
         static_cast<double>(stats.journal_dropped));
  Family(out, "stemroot_journal_errors_total", "counter");
  Sample(out, "stemroot_journal_errors_total", "",
         static_cast<double>(stats.journal_errors));
  return out;
}

bool ValidateExposition(std::string_view text, std::string* error,
                        Exposition* out) {
  Exposition parsed;
  std::istringstream in{std::string(text)};
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string where = "line " + std::to_string(lineno) + ": ";
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash, kind, name, type;
      comment >> hash >> kind;
      if (kind != "TYPE") continue;  // # HELP and other comments pass
      if (!(comment >> name >> type) ||
          (type != "counter" && type != "gauge" && type != "summary" &&
           type != "histogram"))
        return Fail(error, where + "malformed TYPE line: " + line);
      if (!ValidMetricName(name))
        return Fail(error, where + "bad metric name '" + name + "'");
      if (type == "counter" && !name.ends_with("_total"))
        return Fail(error, where + "counter family '" + name +
                               "' must end in _total");
      parsed.types[name] = type;
      continue;
    }

    // Sample line: name[{labels}] value
    const size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos)
      return Fail(error, where + "malformed sample line: " + line);
    const std::string name = line.substr(0, name_end);
    if (!ValidMetricName(name))
      return Fail(error, where + "bad metric name '" + name + "'");
    std::string labels;
    size_t value_start = name_end;
    if (line[name_end] == '{') {
      const size_t close = line.find('}', name_end);
      if (close == std::string::npos)
        return Fail(error, where + "unterminated label set: " + line);
      labels = line.substr(name_end, close - name_end + 1);
      value_start = close + 1;
    }
    value_start = line.find_first_not_of(' ', value_start);
    const std::optional<double> value =
        value_start == std::string::npos
            ? std::nullopt
            : ParseDouble(std::string_view(line).substr(value_start));
    if (!value || !std::isfinite(*value))
      return Fail(error, where +
                             "sample value does not parse as a finite "
                             "number: " + line);
    const std::string family = FamilyOf(name);
    const auto type = parsed.types.find(family);
    if (type == parsed.types.end())
      return Fail(error, where + "sample '" + name + "' has no preceding " +
                             "# TYPE " + family + " declaration");
    if (type->second == "counter" && *value < 0.0)
      return Fail(error, where + "counter '" + name + "' is negative");
    if (IsNonNegativeFamily(family) && *value < 0.0)
      return Fail(error, where + "resource gauge '" + name + "' is negative");
    parsed.samples[name + labels] = *value;
  }
  if (out != nullptr) *out = std::move(parsed);
  return true;
}

bool CheckMonotonic(const Exposition& earlier, const Exposition& later,
                    std::string* error) {
  for (const auto& [key, before] : earlier.samples) {
    const std::string family = FamilyOf(key.substr(0, key.find('{')));
    const auto type = earlier.types.find(family);
    if (type == earlier.types.end()) continue;
    const bool counter = type->second == "counter";
    if (!counter && !IsMonotoneGauge(family)) continue;
    const std::string what =
        std::string(counter ? "counter" : "high-water gauge") + " '" + key +
        "'";
    const auto it = later.samples.find(key);
    if (it == later.samples.end())
      return Fail(error, what + " vanished from the later scrape");
    if (it->second < before)
      return Fail(error, what + " went backwards (" + FormatDouble(before) +
                             " -> " + FormatDouble(it->second) + ")");
  }
  return true;
}

}  // namespace stemroot::service
