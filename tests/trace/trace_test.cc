#include "trace/trace.h"

#include <gtest/gtest.h>

#include "common/csv.h"

namespace stemroot {
namespace {

KernelInvocation MakeInvocation(uint32_t kernel_id, double duration = 1.0) {
  KernelInvocation inv;
  inv.kernel_id = kernel_id;
  inv.behavior.instructions = 1000;
  inv.duration_us = duration;
  return inv;
}

TEST(KernelTraceTest, InternReturnsStableIds) {
  KernelTrace trace("test");
  const uint32_t a = trace.InternKernel("sgemm");
  const uint32_t b = trace.InternKernel("relu");
  const uint32_t a2 = trace.InternKernel("sgemm");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(trace.NumKernelTypes(), 2u);
}

TEST(KernelTraceTest, AddAssignsSequenceNumbers) {
  KernelTrace trace("test");
  const uint32_t k = trace.InternKernel("k");
  for (int i = 0; i < 5; ++i) trace.Add(MakeInvocation(k));
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(trace.At(i).seq, i);
  EXPECT_EQ(trace.NumInvocations(), 5u);
  EXPECT_FALSE(trace.Empty());
}

TEST(KernelTraceTest, AddRejectsUnknownKernel) {
  KernelTrace trace("test");
  EXPECT_THROW(trace.Add(MakeInvocation(0)), std::invalid_argument);
}

TEST(KernelTraceTest, SetInvocationsRenumbersAndRejectsUnknownKernel) {
  KernelTrace trace("test");
  const uint32_t k = trace.InternKernel("k");
  std::vector<KernelInvocation> invocations(3, MakeInvocation(k));
  invocations[2].seq = 99;
  trace.SetInvocations(invocations);
  ASSERT_EQ(trace.NumInvocations(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(trace.At(i).seq, i);
  invocations.push_back(MakeInvocation(k + 1));
  EXPECT_THROW(trace.SetInvocations(invocations), std::invalid_argument);
  EXPECT_EQ(trace.NumInvocations(), 3u);  // unchanged on rejection
}

TEST(KernelTraceTest, FindKernel) {
  KernelTrace trace("test");
  trace.InternKernel("a");
  EXPECT_EQ(trace.FindKernel("a"), 0);
  EXPECT_EQ(trace.FindKernel("missing"), -1);
}

TEST(KernelTraceTest, NamesResolve) {
  KernelTrace trace("test");
  const uint32_t k = trace.InternKernel("max_pool");
  trace.Add(MakeInvocation(k));
  EXPECT_EQ(trace.NameOf(trace.At(0)), "max_pool");
  EXPECT_EQ(trace.TypeOf(trace.At(0)).name, "max_pool");
}

TEST(KernelTraceTest, TotalDurationSums) {
  KernelTrace trace("test");
  const uint32_t k = trace.InternKernel("k");
  trace.Add(MakeInvocation(k, 1.5));
  trace.Add(MakeInvocation(k, 2.5));
  EXPECT_DOUBLE_EQ(trace.TotalDurationUs(), 4.0);
}

TEST(KernelTraceTest, GroupByKernelPreservesTimelineOrder) {
  KernelTrace trace("test");
  const uint32_t a = trace.InternKernel("a");
  const uint32_t b = trace.InternKernel("b");
  trace.Add(MakeInvocation(a));  // seq 0
  trace.Add(MakeInvocation(b));  // seq 1
  trace.Add(MakeInvocation(a));  // seq 2
  const auto groups = trace.GroupByKernel();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[a], (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(groups[b], (std::vector<uint32_t>{1}));
}

TEST(KernelTraceTest, GroupByKernelIncludesEmptyGroups) {
  KernelTrace trace("test");
  trace.InternKernel("unused");
  const uint32_t used = trace.InternKernel("used");
  trace.Add(MakeInvocation(used));
  const auto groups = trace.GroupByKernel();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_TRUE(groups[0].empty());
  EXPECT_EQ(groups[1].size(), 1u);
}

TEST(SerializeTest, TimelineCsvHasHeaderAndAllRows) {
  KernelTrace trace("wl");
  const uint32_t k = trace.InternKernel("sgemm");
  for (int i = 0; i < 3; ++i) trace.Add(MakeInvocation(k, 1.0));
  const std::string path = testing::TempDir() + "/timeline.csv";
  ExportTimelineCsv(trace, path);
  const CsvTable table = CsvTable::ReadFile(path);
  ASSERT_EQ(table.rows.size(), 4u);  // header + 3
  EXPECT_EQ(table.rows[0][0], "kernel");
  EXPECT_EQ(table.rows[1][0], "sgemm");
}

TEST(SerializeTest, HostileKernelNamesRoundTripThroughCsv) {
  // Kernel names are the one externally-controlled CSV cell. RFC-4180
  // quoting in CsvWriter::WriteRow must carry commas, quotes, newlines,
  // and leading/trailing spaces through CsvTable's parser unchanged.
  const std::vector<std::string> hostile = {
      "plain",
      "with,comma",
      "with\"quote",
      "with\nnewline",
      " padded ",
      "\"quoted,mix\"\nall",
  };
  KernelTrace trace("hostile");
  for (const std::string& name : hostile)
    trace.Add(MakeInvocation(trace.InternKernel(name)));
  const std::string path = testing::TempDir() + "/hostile.csv";
  ExportTimelineCsv(trace, path);
  const CsvTable table = CsvTable::ReadFile(path);
  ASSERT_EQ(table.rows.size(), hostile.size() + 1);  // header + rows
  for (size_t i = 0; i < hostile.size(); ++i)
    EXPECT_EQ(table.rows[i + 1][0], hostile[i]) << "row " << i;
}

}  // namespace
}  // namespace stemroot
