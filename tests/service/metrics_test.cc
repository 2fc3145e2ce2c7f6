#include "service/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace stemroot::service {
namespace {

TEST(ServiceMetricsTest, VerbNamesAreCanonical) {
  EXPECT_STREQ(VerbName(Verb::kOpen), "open");
  EXPECT_STREQ(VerbName(Verb::kFeed), "feed");
  EXPECT_STREQ(VerbName(Verb::kQuery), "query");
  EXPECT_STREQ(VerbName(Verb::kPlan), "plan");
  EXPECT_STREQ(VerbName(Verb::kEval), "eval");
  EXPECT_STREQ(VerbName(Verb::kClose), "close");
}

TEST(ServiceMetricsTest, RecordRequestTracksPerVerb) {
  ServiceMetrics metrics;
  metrics.RecordRequest(Verb::kFeed, 100.0, true);
  metrics.RecordRequest(Verb::kFeed, 300.0, true);
  metrics.RecordRequest(Verb::kFeed, 200.0, false);
  metrics.RecordRequest(Verb::kQuery, 50.0, true);

  EXPECT_EQ(metrics.Requests(Verb::kFeed), 3u);
  EXPECT_EQ(metrics.Errors(Verb::kFeed), 1u);
  EXPECT_EQ(metrics.Requests(Verb::kQuery), 1u);
  EXPECT_EQ(metrics.Errors(Verb::kQuery), 0u);
  EXPECT_EQ(metrics.Requests(Verb::kOpen), 0u);

  const VerbStats feed = metrics.GetVerb(Verb::kFeed);
  EXPECT_EQ(feed.verb, "feed");
  EXPECT_EQ(feed.requests, 3u);
  EXPECT_EQ(feed.errors, 1u);
  EXPECT_DOUBLE_EQ(feed.total_us, 600.0);
  EXPECT_DOUBLE_EQ(feed.mean_us, 200.0);
  EXPECT_DOUBLE_EQ(feed.max_us, 300.0);
  // Bucket-bound quantiles: within one growth factor above the exact
  // rank value, and never above the exact max by more than that.
  EXPECT_GE(feed.p50_us, 100.0);
  EXPECT_LE(feed.p99_us, 300.0 * 1.5);
  EXPECT_GE(feed.p99_us, feed.p50_us);
}

TEST(ServiceMetricsTest, AllVerbsCoversEnumOrder) {
  ServiceMetrics metrics;
  metrics.RecordRequest(Verb::kClose, 10.0, true);
  const std::vector<VerbStats> all = metrics.AllVerbs();
  ASSERT_EQ(all.size(), kNumVerbs);
  EXPECT_EQ(all[0].verb, "open");
  EXPECT_EQ(all[5].verb, "close");
  EXPECT_EQ(all[5].requests, 1u);
  for (size_t i = 0; i + 1 < all.size(); ++i)
    EXPECT_NE(all[i].verb, all[i + 1].verb);
}

TEST(ServiceMetricsTest, RegisteredCounterSetIsClosedAndSorted) {
  const auto counters = RegisteredServiceCounters();
  ASSERT_FALSE(counters.empty());
  for (size_t i = 0; i + 1 < counters.size(); ++i)
    EXPECT_LT(counters[i], counters[i + 1]);
  for (std::string_view name : counters) {
    EXPECT_EQ(name.rfind("service.", 0), 0u) << name;
    EXPECT_TRUE(IsRegisteredServiceCounter(name)) << name;
  }
  EXPECT_FALSE(IsRegisteredServiceCounter("service.not_a_counter"));
  EXPECT_FALSE(IsRegisteredServiceCounter("cache.hits"));
}

ServiceStats MakeStats() {
  ServiceStats stats;
  stats.uptime_seconds = 12.5;
  stats.open_sessions = 1;
  stats.max_sessions = 8;
  stats.sessions_opened = 3;
  stats.sessions_closed = 2;
  stats.feed_invocations = 40;
  stats.early_stops = 1;
  stats.requests_total = 50;
  stats.errors_total = 2;
  for (size_t i = 0; i < kNumVerbs; ++i) {
    VerbStats verb;
    verb.verb = VerbName(static_cast<Verb>(i));
    stats.verbs.push_back(verb);
  }
  // Only feed carries traffic; the other summaries must be absent.
  stats.verbs[1].requests = 40;
  stats.verbs[1].errors = 2;
  stats.verbs[1].total_us = 4000.0;
  stats.verbs[1].mean_us = 100.0;
  stats.verbs[1].p50_us = 96.0;
  stats.verbs[1].p90_us = 150.0;
  stats.verbs[1].p99_us = 200.0;
  stats.verbs[1].max_us = 250.0;
  stats.journal_emitted = 17;
  stats.journal_dropped = 0;
  stats.journal_errors = 0;
  return stats;
}

TEST(ServiceMetricsTest, PrometheusTextHasTypedFamilies) {
  const std::string text = PrometheusText(MakeStats());

  // Gauges.
  EXPECT_NE(text.find("# TYPE stemroot_service_uptime_seconds gauge"),
            std::string::npos);
  EXPECT_NE(text.find("stemroot_service_open_sessions 1"),
            std::string::npos);
  // Counters end in _total and carry verb labels.
  EXPECT_NE(text.find("# TYPE stemroot_service_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("stemroot_service_requests_total{verb=\"feed\"} 40"),
            std::string::npos);
  EXPECT_NE(
      text.find("stemroot_service_request_errors_total{verb=\"feed\"} 2"),
      std::string::npos);
  // The latency summary exposes quantile labels plus _sum/_count.
  EXPECT_NE(
      text.find("# TYPE stemroot_service_request_latency_us summary"),
      std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("stemroot_service_request_latency_us_count"
                      "{verb=\"feed\"} 40"),
            std::string::npos);
  // Journal counters surface too.
  EXPECT_NE(text.find("stemroot_journal_events_total 17"),
            std::string::npos);
}

TEST(ServiceMetricsTest, PrometheusTextOmitsEmptyVerbSummaries) {
  const std::string text = PrometheusText(MakeStats());
  // A quantile of an empty histogram is absent, not zero: verbs with no
  // traffic contribute no latency samples.
  EXPECT_EQ(text.find("stemroot_service_request_latency_us{verb=\"open\""),
            std::string::npos);
  EXPECT_NE(text.find("stemroot_service_request_latency_us{verb=\"feed\""),
            std::string::npos);
}

TEST(ServiceMetricsTest, PrometheusTextIsDeterministic) {
  const ServiceStats stats = MakeStats();
  EXPECT_EQ(PrometheusText(stats), PrometheusText(stats));
}

TEST(ServiceMetricsTest, PrometheusLinesAreWellFormed) {
  const std::string text = PrometheusText(MakeStats());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  // Every non-comment line is `name[{labels}] value`.
  size_t start = 0;
  while (start < text.size()) {
    const size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
  }
}

ServiceStats MakePopulatedStats() {
  ServiceStats stats = MakeStats();
  stats.process_rss_bytes = 64 << 20;
  stats.process_hwm_bytes = 80 << 20;
  stats.resource_samples = 9;
  stats.process_cpu_user_seconds = 1.25;
  stats.process_cpu_system_seconds = 0.5;
  stats.mem_logical = {{"trace", 4096}, {"service.session", 1024}};
  return stats;
}

TEST(ExpositionTest, PrometheusTextValidates) {
  std::string error;
  Exposition parsed;
  ASSERT_TRUE(ValidateExposition(PrometheusText(MakePopulatedStats()),
                                 &error, &parsed))
      << error;
  EXPECT_EQ(parsed.types.at("stemroot_service_requests_total"), "counter");
  EXPECT_EQ(parsed.types.at("stemroot_mem_trace_bytes"), "gauge");
  EXPECT_DOUBLE_EQ(
      parsed.samples.at("stemroot_service_requests_total{verb=\"feed\"}"),
      40.0);
  EXPECT_DOUBLE_EQ(parsed.samples.at("stemroot_process_hwm_bytes"),
                   80.0 * (1 << 20));
  // The summary's _sum/_count samples belong to the declared family.
  EXPECT_TRUE(parsed.samples.count(
      "stemroot_service_request_latency_us_count{verb=\"feed\"}"));
}

TEST(ExpositionTest, EachRuleRejects) {
  std::string error;
  EXPECT_FALSE(ValidateExposition("# TYPE 9bad gauge\n9bad 1\n", &error));
  EXPECT_NE(error.find("bad metric name"), std::string::npos) << error;
  EXPECT_FALSE(
      ValidateExposition("# TYPE requests counter\nrequests 1\n", &error));
  EXPECT_NE(error.find("_total"), std::string::npos) << error;
  EXPECT_FALSE(ValidateExposition("up 1\n# TYPE up gauge\n", &error));
  EXPECT_NE(error.find("no preceding # TYPE"), std::string::npos) << error;
  for (const char* value : {"NaN", "+Inf", "inf", "abc", ""}) {
    const std::string text = std::string("# TYPE up gauge\nup ") + value;
    EXPECT_FALSE(ValidateExposition(text + "\n", &error)) << value;
    EXPECT_NE(error.find("finite"), std::string::npos) << error;
  }
  EXPECT_FALSE(ValidateExposition(
      "# TYPE stemroot_process_rss_bytes gauge\n"
      "stemroot_process_rss_bytes -1\n",
      &error));
  EXPECT_NE(error.find("negative"), std::string::npos) << error;
  EXPECT_FALSE(ValidateExposition(
      "# TYPE x_total counter\nx_total{verb=\"a\" 1\n", &error));
  EXPECT_NE(error.find("unterminated label set"), std::string::npos)
      << error;
  EXPECT_FALSE(
      ValidateExposition("# TYPE x_total counter\nx_total -2\n", &error));
  EXPECT_FALSE(ValidateExposition("# TYPE x widget\n", &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  // A plain gauge may go negative; comments and blank lines pass.
  EXPECT_TRUE(ValidateExposition(
      "# HELP t temperature\n\n# TYPE t gauge\nt -3.5\n", nullptr));
}

TEST(ExpositionTest, MonotonicityCatchesRegressionsAcrossScrapes) {
  Exposition earlier, later;
  ServiceStats stats = MakePopulatedStats();
  ASSERT_TRUE(ValidateExposition(PrometheusText(stats), nullptr, &earlier));
  stats.sessions_opened += 1;
  stats.process_rss_bytes -= 1 << 20;  // a plain gauge may fall
  ASSERT_TRUE(ValidateExposition(PrometheusText(stats), nullptr, &later));
  std::string error;
  EXPECT_TRUE(CheckMonotonic(earlier, later, &error)) << error;

  ServiceStats fewer = stats;
  fewer.sessions_opened = 0;  // a counter decreased
  ASSERT_TRUE(ValidateExposition(PrometheusText(fewer), nullptr, &later));
  EXPECT_FALSE(CheckMonotonic(earlier, later, &error));
  EXPECT_NE(error.find("stemroot_service_sessions_opened_total"),
            std::string::npos)
      << error;

  ServiceStats lower_hwm = stats;
  lower_hwm.process_hwm_bytes -= 1;  // a high-water gauge decreased
  ASSERT_TRUE(ValidateExposition(PrometheusText(lower_hwm), nullptr, &later));
  EXPECT_FALSE(CheckMonotonic(earlier, later, &error));
  EXPECT_NE(error.find("high-water gauge"), std::string::npos) << error;

  ServiceStats dropped = stats;
  dropped.mem_logical.erase("trace");  // a monotone sample vanished
  ASSERT_TRUE(ValidateExposition(PrometheusText(dropped), nullptr, &later));
  EXPECT_FALSE(CheckMonotonic(earlier, later, &error));
  EXPECT_NE(error.find("vanished"), std::string::npos) << error;
}

}  // namespace
}  // namespace stemroot::service
