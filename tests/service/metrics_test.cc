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
  for (std::string_view name :
       {"service.early_stops", "service.feed_invocations", "service.sessions"})
    EXPECT_TRUE(IsRegisteredServiceCounter(name)) << name;
  EXPECT_FALSE(IsRegisteredServiceCounter("service.not_a_counter"));
  EXPECT_FALSE(IsRegisteredServiceCounter("cache.hits"));
}

}  // namespace
}  // namespace stemroot::service
