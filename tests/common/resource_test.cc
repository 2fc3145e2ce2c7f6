#include "common/resource.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>


#ifndef SR_TESTDATA_DIR
#error "SR_TESTDATA_DIR must point at tests/common/testdata"
#endif

namespace stemroot::resource {
namespace {

std::string Fixture(const std::string& name) {
  return std::string(SR_TESTDATA_DIR) + "/" + name;
}

/// Accounting state is process-global; every test that touches it starts
/// from a clean slate and leaves the switch off (the process default).
class AccountingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetAccountingEnabled(false);
    ResetAccounting();
  }
  void TearDown() override {
    SetAccountingEnabled(false);
    ResetAccounting();
  }
};

TEST(ResourceParseTest, StatmGoodFile) {
  // statm_good.txt: "48276 6144 1321 202 0 3459 0" — resident = field 2.
  const std::optional<uint64_t> rss =
      ParseStatmRssBytes("48276 6144 1321 202 0 3459 0\n", 4096);
  ASSERT_TRUE(rss.has_value());
  EXPECT_EQ(*rss, 6144u * 4096u);
}

TEST(ResourceParseTest, StatmPageSizeScales) {
  const std::optional<uint64_t> rss = ParseStatmRssBytes("10 7 1", 16384);
  ASSERT_TRUE(rss.has_value());
  EXPECT_EQ(*rss, 7u * 16384u);
}

TEST(ResourceParseTest, StatmTruncatedIsAbsent) {
  EXPECT_FALSE(ParseStatmRssBytes("48276", 4096).has_value());
  EXPECT_FALSE(ParseStatmRssBytes("", 4096).has_value());
  EXPECT_FALSE(ParseStatmRssBytes("  \n ", 4096).has_value());
}

TEST(ResourceParseTest, StatmGarbageIsAbsent) {
  EXPECT_FALSE(
      ParseStatmRssBytes("total resident shared", 4096).has_value());
  EXPECT_FALSE(ParseStatmRssBytes("48276 -3 1", 4096).has_value());
}

TEST(ResourceParseTest, StatusGoodText) {
  const StatusFields fields = ParseStatusText(
      "Name:\tstemroot\nVmHWM:\t   24576 kB\nVmRSS:\t   24320 kB\n");
  ASSERT_TRUE(fields.vm_hwm_bytes.has_value());
  ASSERT_TRUE(fields.vm_rss_bytes.has_value());
  EXPECT_EQ(*fields.vm_hwm_bytes, 24576u * 1024u);
  EXPECT_EQ(*fields.vm_rss_bytes, 24320u * 1024u);
}

TEST(ResourceParseTest, StatusMissingFieldsStayAbsent) {
  const StatusFields fields =
      ParseStatusText("Name:\tstemroot\nVmRSS:\t 8192 kB\n");
  EXPECT_FALSE(fields.vm_hwm_bytes.has_value());
  ASSERT_TRUE(fields.vm_rss_bytes.has_value());
  EXPECT_EQ(*fields.vm_rss_bytes, 8192u * 1024u);
}

TEST(ResourceParseTest, StatusBadUnitRejectedPerField) {
  // Each field fails independently: the mB line is malformed, the kB
  // line still parses.
  const StatusFields fields =
      ParseStatusText("VmHWM:\t 4096 mB\nVmRSS:\t 2048 kB\n");
  EXPECT_FALSE(fields.vm_hwm_bytes.has_value());
  ASSERT_TRUE(fields.vm_rss_bytes.has_value());
  EXPECT_EQ(*fields.vm_rss_bytes, 2048u * 1024u);
}

TEST(ResourceParseTest, StatusMissingUnitTolerated) {
  const StatusFields fields = ParseStatusText("VmRSS:\t 100\n");
  ASSERT_TRUE(fields.vm_rss_bytes.has_value());
  EXPECT_EQ(*fields.vm_rss_bytes, 100u * 1024u);
}

TEST(ResourceParseTest, StatusNegativeOrGarbageValueAbsent) {
  EXPECT_FALSE(ParseStatusText("VmRSS:\t -5 kB\n").vm_rss_bytes.has_value());
  EXPECT_FALSE(
      ParseStatusText("VmRSS:\t lots kB\n").vm_rss_bytes.has_value());
  EXPECT_FALSE(ParseStatusText("VmRSS:\n").vm_rss_bytes.has_value());
}

TEST(ResourceParseTest, ReadProcFilesFixtures) {
  const PhysicalSample sample = ReadProcFiles(
      Fixture("statm_good.txt"), Fixture("status_good.txt"), 4096);
  ASSERT_TRUE(sample.rss_bytes.has_value());
  EXPECT_EQ(*sample.rss_bytes, 6144u * 4096u);  // statm wins over VmRSS
  ASSERT_TRUE(sample.hwm_bytes.has_value());
  EXPECT_EQ(*sample.hwm_bytes, 24576u * 1024u);
  // The pure reader never touches getrusage.
  EXPECT_FALSE(sample.max_rss_bytes.has_value());
  EXPECT_DOUBLE_EQ(sample.user_cpu_seconds, 0.0);
}

TEST(ResourceParseTest, ReadProcFilesStatmFallsBackToVmRss) {
  const PhysicalSample sample = ReadProcFiles(
      Fixture("statm_truncated.txt"), Fixture("status_truncated.txt"), 4096);
  ASSERT_TRUE(sample.rss_bytes.has_value());
  EXPECT_EQ(*sample.rss_bytes, 8192u * 1024u);  // VmRSS fallback
  EXPECT_FALSE(sample.hwm_bytes.has_value());   // truncated before VmHWM
}

TEST(ResourceParseTest, ReadProcFilesGarbageAndBadUnit) {
  const PhysicalSample sample = ReadProcFiles(
      Fixture("statm_garbage.txt"), Fixture("status_bad_unit.txt"), 4096);
  ASSERT_TRUE(sample.rss_bytes.has_value());
  EXPECT_EQ(*sample.rss_bytes, 2048u * 1024u);  // VmRSS fallback again
  EXPECT_FALSE(sample.hwm_bytes.has_value());   // mB unit rejected
}

TEST(ResourceParseTest, ReadProcFilesMissingFilesAbsentNotFatal) {
  const PhysicalSample sample = ReadProcFiles(
      Fixture("no_such_statm.txt"), Fixture("no_such_status.txt"), 4096);
  EXPECT_FALSE(sample.rss_bytes.has_value());
  EXPECT_FALSE(sample.hwm_bytes.has_value());
  EXPECT_FALSE(sample.max_rss_bytes.has_value());
}

TEST_F(AccountingTest, DisabledIsNoOp) {
  EXPECT_FALSE(AccountingEnabled());
  Account("trace", 1000);
  AccountPeak("sim", 2000);
  EXPECT_TRUE(LogicalPeaks().empty());
}

TEST_F(AccountingTest, AccountIsChargeOnly) {
  SetAccountingEnabled(true);
  Account("trace", 100);
  Account("trace", 50);
  Account("root", 7);
  const std::map<std::string, uint64_t> peaks = LogicalPeaks();
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks.at("trace"), 150u);
  EXPECT_EQ(peaks.at("root"), 7u);
}

TEST_F(AccountingTest, AccountPeakTakesMax) {
  SetAccountingEnabled(true);
  AccountPeak("sim", 500);
  AccountPeak("sim", 200);  // lower value never shrinks the peak
  AccountPeak("sim", 900);
  EXPECT_EQ(LogicalPeaks().at("sim"), 900u);
}

TEST_F(AccountingTest, ResetClearsCategories) {
  SetAccountingEnabled(true);
  Account("trace", 1);
  ResetAccounting();
  EXPECT_TRUE(LogicalPeaks().empty());
}

TEST_F(AccountingTest, ConcurrentChargesAreScheduleInvariant) {
  // The determinism contract: N threads issuing a fixed set of charges
  // always land on the same peaks — Account peaks equal the total sum,
  // AccountPeak peaks equal the max over the fixed per-call values.
  SetAccountingEnabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        Account("trace", 3);
        AccountPeak("sim", static_cast<uint64_t>((t * kPerThread + i) % 257));
      }
    });
  for (std::thread& t : threads) t.join();
  const std::map<std::string, uint64_t> peaks = LogicalPeaks();
  EXPECT_EQ(peaks.at("trace"),
            static_cast<uint64_t>(kThreads) * kPerThread * 3);
  EXPECT_EQ(peaks.at("sim"), 256u);  // max of (index % 257)
}

TEST(ResourceSamplerTest, SamplePhysicalFoldsIntoStats) {
  const Stats before = GetStats();
  const PhysicalSample sample = SamplePhysical();
  const Stats after = GetStats();
  EXPECT_GE(after.samples, before.samples + 1);
#if defined(__linux__)
  // On Linux /proc/self is always there: the sample and the folded peak
  // must both be live.
  ASSERT_TRUE(sample.rss_bytes.has_value());
  EXPECT_GT(*sample.rss_bytes, 0u);
  EXPECT_GT(after.peak_rss_bytes, 0u);
  EXPECT_GT(CurrentRssBytes(), 0u);
  EXPECT_GE(after.peak_rss_bytes, CurrentRssBytes());
#endif
  EXPECT_GE(after.user_cpu_seconds + after.system_cpu_seconds, 0.0);
}

TEST(ResourceSamplerTest, PeakRssBytesSamplesFirst) {
  const uint64_t samples_before = GetStats().samples;
  const uint64_t peak = PeakRssBytes();
  EXPECT_GE(GetStats().samples, samples_before + 1);
#if defined(__linux__)
  EXPECT_GT(peak, 0u);
#else
  (void)peak;
#endif
}

TEST(ResourceSamplerTest, PeakIsMonotone) {
  const uint64_t first = PeakRssBytes();
  // Grow the heap a little, then re-sample: the peak may rise but never
  // falls.
  std::vector<char> ballast(8 * 1024 * 1024, 1);
  const uint64_t second = PeakRssBytes();
  EXPECT_GE(second, first);
  (void)ballast[ballast.size() / 2];
}

TEST(ResourceSamplerTest, StartStopLifecycle) {
  EXPECT_FALSE(SamplerRunning());
  const uint64_t samples_before = GetStats().samples;
  StartSampler(1);
  EXPECT_TRUE(SamplerRunning());
  StartSampler(1);  // idempotent while running
  EXPECT_TRUE(SamplerRunning());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  StopSampler();
  EXPECT_FALSE(SamplerRunning());
  StopSampler();  // safe when not running
  // At least the initial tick plus the final sample in the destructor.
  EXPECT_GE(GetStats().samples, samples_before + 2);
}

}  // namespace
}  // namespace stemroot::resource
