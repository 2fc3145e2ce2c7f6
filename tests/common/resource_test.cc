#include "common/resource.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"

#ifndef SR_TESTDATA_DIR
#error "SR_TESTDATA_DIR must point at tests/common/testdata"
#endif

namespace stemroot::resource {
namespace {

std::string Fixture(const std::string& name) {
  return std::string(SR_TESTDATA_DIR) + "/" + name;
}

/// Accounting state is process-global and rides the telemetry switch;
/// every test that touches it starts from a clean slate and leaves the
/// switch off (the process default).
class AccountingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::SetEnabled(false);
    ResetAccounting();
  }
  void TearDown() override {
    telemetry::SetEnabled(false);
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

TEST(ResourceParseTest, ValuesPastUint64AreAbsent) {
  // 2^54 kB and 2^52 pages of 4 KiB are both 2^64 bytes, one past the
  // range: absent, not wrapped to 0.
  EXPECT_FALSE(ParseStatusText("VmRSS:\t18014398509481984 kB\n")
                   .vm_rss_bytes.has_value());
  EXPECT_FALSE(ParseStatusText("VmHWM:\t18014398509481984 kB\n")
                   .vm_hwm_bytes.has_value());
  EXPECT_FALSE(ParseStatmRssBytes("1 4503599627370496 0", 4096).has_value());
  // One unit less still fits and reads exactly.
  EXPECT_EQ(ParseStatusText("VmRSS:\t18014398509481983 kB\n").vm_rss_bytes,
            UINT64_MAX - 1023);
  EXPECT_EQ(ParseStatmRssBytes("1 4503599627370495 0", 4096),
            UINT64_MAX - 4095);
}

bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// The parsers' tokenization: runs of anything but space, tab, CR, LF.
std::vector<std::string_view> Words(std::string_view text) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && IsBlank(text[i])) ++i;
    const size_t start = i;
    while (i < text.size() && !IsBlank(text[i])) ++i;
    if (i > start) out.push_back(text.substr(start, i - start));
  }
  return out;
}

/// `word` as a signed decimal count times `unit`, exact in 128 bits;
/// std::nullopt when the word is no such count, is negative or the
/// product passes 2^64 - 1.
std::optional<uint64_t> StatedBytes(std::string_view word, uint64_t unit) {
  bool negative = false;
  if (!word.empty() && (word[0] == '+' || word[0] == '-')) {
    negative = word[0] == '-';
    word.remove_prefix(1);
  }
  if (word.empty()) return std::nullopt;
  unsigned __int128 count = 0;
  for (const char c : word) {
    if (c < '0' || c > '9') return std::nullopt;
    count = count * 10 + static_cast<unsigned>(c - '0');
    if (count > UINT64_MAX) return std::nullopt;
  }
  if (negative && count != 0) return std::nullopt;
  const unsigned __int128 bytes = count * unit;
  if (bytes > UINT64_MAX) return std::nullopt;
  return static_cast<uint64_t>(bytes);
}

/// Whether some `key` line of status text states `bytes` ("N kB" or "N").
bool StatusStates(std::string_view text, std::string_view key,
                  uint64_t bytes) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (!line.starts_with(key)) continue;
    const std::vector<std::string_view> words = Words(line.substr(key.size()));
    if (words.empty() || (words.size() >= 2 && words[1] != "kB")) continue;
    if (StatedBytes(words[0], 1024) == bytes) return true;
  }
  return false;
}

TEST(ResourceParseTest, MutatedFixturesNeverThrowAndReadOnlyWhatTheyState) {
  std::vector<std::string> texts;
  for (const char* name :
       {"statm_good.txt", "statm_truncated.txt", "statm_garbage.txt",
        "status_good.txt", "status_truncated.txt", "status_bad_unit.txt"}) {
    std::ifstream in(Fixture(name), std::ios::binary);
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    ASSERT_FALSE(text.empty()) << name;
    for (size_t i = 0; i < text.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = text;
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        texts.push_back(std::move(flipped));
      }
      texts.push_back(text.substr(0, i));
    }
    Rng rng(0x5052'4f43u + texts.size());  // "PROC"
    for (int k = 0; k < 2048; ++k) {
      std::string overwritten = text;
      overwritten[rng.NextBounded(text.size())] =
          static_cast<char>(rng.NextBounded(256));
      texts.push_back(std::move(overwritten));
    }
  }

  size_t values = 0;
  for (const std::string& text : texts) {
    std::optional<uint64_t> rss;
    StatusFields fields;
    ASSERT_NO_THROW(rss = ParseStatmRssBytes(text, 4096)) << text;
    ASSERT_NO_THROW(fields = ParseStatusText(text)) << text;
    if (rss) {
      const std::vector<std::string_view> words = Words(text);
      ASSERT_GE(words.size(), 2u) << text;
      EXPECT_EQ(StatedBytes(words[1], 4096), rss) << text;
      ++values;
    }
    if (fields.vm_rss_bytes) {
      EXPECT_TRUE(StatusStates(text, "VmRSS:", *fields.vm_rss_bytes)) << text;
      ++values;
    }
    if (fields.vm_hwm_bytes) {
      EXPECT_TRUE(StatusStates(text, "VmHWM:", *fields.vm_hwm_bytes)) << text;
      ++values;
    }
  }
  // Most mutations leave a value to check, so the oracle is exercised.
  EXPECT_GT(values, texts.size() / 2);
}

TEST_F(AccountingTest, DisabledIsNoOp) {
  EXPECT_FALSE(telemetry::Enabled());
  Account("trace", 1000);
  AccountPeak("sim", 2000);
  EXPECT_TRUE(LogicalPeaks().empty());
}

TEST_F(AccountingTest, TelemetrySwitchGatesChargesButAMutedScopeDoesNot) {
  Account("trace", 1);  // telemetry off: nothing lands
  AccountPeak("sim", 1);
  EXPECT_TRUE(LogicalPeaks().empty());

  telemetry::SetEnabled(true);
  Account("trace", 100);
  AccountPeak("sim", 200);
  {
    // A muted thread (a session's streaming fold) records no telemetry,
    // but its memory is still the process's memory.
    const telemetry::Scope mute(nullptr);
    Account("trace", 5);
    AccountPeak("service.session", 300);
  }
  const std::map<std::string, uint64_t> peaks = LogicalPeaks();
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_EQ(peaks.at("trace"), 105u);
  EXPECT_EQ(peaks.at("sim"), 200u);
  EXPECT_EQ(peaks.at("service.session"), 300u);
}

TEST_F(AccountingTest, AccountIsChargeOnly) {
  telemetry::SetEnabled(true);
  Account("trace", 100);
  Account("trace", 50);
  Account("root", 7);
  const std::map<std::string, uint64_t> peaks = LogicalPeaks();
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks.at("trace"), 150u);
  EXPECT_EQ(peaks.at("root"), 7u);
}

TEST_F(AccountingTest, AccountPeakTakesMax) {
  telemetry::SetEnabled(true);
  AccountPeak("sim", 500);
  AccountPeak("sim", 200);  // lower value never shrinks the peak
  AccountPeak("sim", 900);
  EXPECT_EQ(LogicalPeaks().at("sim"), 900u);
}

TEST_F(AccountingTest, ResetClearsCategories) {
  telemetry::SetEnabled(true);
  Account("trace", 1);
  ResetAccounting();
  EXPECT_TRUE(LogicalPeaks().empty());
}

TEST_F(AccountingTest, ConcurrentChargesAreScheduleInvariant) {
  // The determinism contract: N threads issuing a fixed set of charges
  // always land on the same peaks — Account peaks equal the total sum,
  // AccountPeak peaks equal the max over the fixed per-call values.
  telemetry::SetEnabled(true);
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
  EXPECT_GT(after.current_rss_bytes, 0u);
  EXPECT_GE(after.peak_rss_bytes, after.current_rss_bytes);
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

}  // namespace
}  // namespace stemroot::resource
