#include "service/metrics.h"

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

bool IsRegisteredServiceCounter(std::string_view name) {
  for (std::string_view registered : kRegisteredCounters)
    if (name == registered) return true;
  return false;
}

}  // namespace stemroot::service
