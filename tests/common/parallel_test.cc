#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"

namespace stemroot {
namespace {

/// Force a thread count for the duration of one test, restoring auto mode
/// afterwards so tests compose in any order.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { SetNumThreads(n); }
  ~ScopedThreads() { SetNumThreads(0); }
};

TEST(NumThreadsTest, DefaultsToAtLeastOne) {
  SetNumThreads(0);
  EXPECT_GE(NumThreads(), 1);
}

TEST(NumThreadsTest, ExplicitSettingWins) {
  ScopedThreads guard(3);
  EXPECT_EQ(NumThreads(), 3);
}

TEST(NumThreadsTest, EnvVariableIsHonored) {
  SetNumThreads(0);
  ::setenv("STEMROOT_THREADS", "5", 1);
  EXPECT_EQ(NumThreads(), 5);
  // Explicit SetNumThreads overrides the environment.
  SetNumThreads(2);
  EXPECT_EQ(NumThreads(), 2);
  SetNumThreads(0);
  ::unsetenv("STEMROOT_THREADS");
}

TEST(NumThreadsTest, GarbageEnvFallsThrough) {
  SetNumThreads(0);
  ::setenv("STEMROOT_THREADS", "lots", 1);
  EXPECT_GE(NumThreads(), 1);
  ::setenv("STEMROOT_THREADS", "-4", 1);
  EXPECT_GE(NumThreads(), 1);
  ::unsetenv("STEMROOT_THREADS");
}

TEST(NumThreadsTest, NegativeExplicitThrows) {
  EXPECT_THROW(SetNumThreads(-1), std::invalid_argument);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ScopedThreads guard(8);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<uint32_t>> visits(kN);
  ParallelFor(0, kN, [&](size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i)
    ASSERT_EQ(visits[i].load(), 1u) << "index " << i;
}

TEST(ParallelForTest, RespectsBeginOffset) {
  ScopedThreads guard(4);
  std::atomic<uint64_t> sum{0};
  ParallelFor(100, 200, [&](size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), (100u + 199u) * 100u / 2u);
}

TEST(ParallelForTest, EmptyRangeDoesNothing) {
  ScopedThreads guard(8);
  std::atomic<uint32_t> calls{0};
  ParallelFor(0, 0, [&](size_t) { calls.fetch_add(1); });
  ParallelFor(5, 5, [&](size_t) { calls.fetch_add(1); });
  ParallelFor(7, 3, [&](size_t) { calls.fetch_add(1); });  // inverted
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ParallelForTest, RangeSmallerThanThreadCount) {
  ScopedThreads guard(8);
  std::vector<std::atomic<uint32_t>> visits(3);
  ParallelFor(0, 3, [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < 3; ++i) ASSERT_EQ(visits[i].load(), 1u);
}

TEST(ParallelForTest, PropagatesException) {
  ScopedThreads guard(8);
  EXPECT_THROW(
      ParallelFor(0, 1000,
                  [&](size_t i) {
                    if (i == 237) throw std::runtime_error("boom at 237");
                  }),
      std::runtime_error);
  // The pool survives a failed region: the next region works normally.
  std::atomic<uint32_t> calls{0};
  ParallelFor(0, 64, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 64u);
}

TEST(ParallelForTest, ExceptionFromFirstChunkOnCallerThread) {
  ScopedThreads guard(8);
  EXPECT_THROW(ParallelFor(0, 8,
                           [&](size_t) {
                             throw std::invalid_argument("immediate");
                           },
                           /*grain=*/1),
               std::invalid_argument);
}

TEST(ParallelForTest, NestedCallsRunSerialAndComplete) {
  ScopedThreads guard(4);
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<uint32_t>> visits(kOuter * kInner);
  ParallelFor(0, kOuter, [&](size_t outer) {
    EXPECT_TRUE(InParallelRegion());
    ParallelFor(0, kInner, [&](size_t inner) {
      visits[outer * kInner + inner].fetch_add(1);
    });
  });
  for (size_t i = 0; i < visits.size(); ++i)
    ASSERT_EQ(visits[i].load(), 1u) << "slot " << i;
  EXPECT_FALSE(InParallelRegion());
}

TEST(ParallelForTest, SerialWhenSingleThreaded) {
  ScopedThreads guard(1);
  size_t calls = 0;  // unsynchronized on purpose: must run on this thread
  ParallelFor(0, 100, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 100u);
}

TEST(ParallelMapTest, PreservesInputOrder) {
  ScopedThreads guard(8);
  const std::vector<int> out =
      ParallelMap(1000, [](size_t i) { return static_cast<int>(i * 3); });
  ASSERT_EQ(out.size(), 1000u);
  for (size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], static_cast<int>(i * 3));
}

TEST(ParallelMapTest, MoveOnlyResults) {
  ScopedThreads guard(4);
  auto out = ParallelMap(
      64, [](size_t i) { return std::make_unique<size_t>(i); });
  ASSERT_EQ(out.size(), 64u);
  for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(*out[i], i);
}

TEST(ParallelMapTest, ResultsIndependentOfThreadCount) {
  // The determinism contract at the primitive level: per-index derived
  // Rng streams give the same values no matter how chunks are scheduled.
  constexpr uint64_t kSeed = 0xBEEF;
  auto draw = [&](size_t i) {
    Rng rng(DeriveSeed(kSeed, i));
    return rng.NextDouble();
  };
  SetNumThreads(1);
  const std::vector<double> serial = ParallelMap(4096, draw);
  SetNumThreads(8);
  const std::vector<double> parallel = ParallelMap(4096, draw);
  SetNumThreads(0);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i], parallel[i]) << "index " << i;
}

TEST(ThreadPoolStressTest, TenThousandTasksWithConcurrentRngStreams) {
  ScopedThreads guard(8);
  constexpr size_t kTasks = 10000;
  constexpr uint64_t kSeed = 20260805;
  // Every task owns a derived stream and mixes several draw kinds; the
  // totals must match a serial recomputation exactly.
  std::vector<double> results(kTasks, 0.0);
  ParallelFor(0, kTasks, [&](size_t i) {
    Rng rng(DeriveSeed(kSeed, i));
    double acc = rng.NextDouble();
    acc += rng.NextGaussian();
    acc += static_cast<double>(rng.NextBounded(1000));
    acc += rng.NextLogNormal(0.0, 0.25);
    results[i] = acc;
  });
  for (size_t i = 0; i < kTasks; ++i) {
    Rng rng(DeriveSeed(kSeed, i));
    double expected = rng.NextDouble();
    expected += rng.NextGaussian();
    expected += static_cast<double>(rng.NextBounded(1000));
    expected += rng.NextLogNormal(0.0, 0.25);
    ASSERT_EQ(results[i], expected) << "task " << i;
  }
}

TEST(ThreadPoolStressTest, ManySmallRegionsBackToBack) {
  ScopedThreads guard(4);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    ParallelFor(0, 50, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200u * 50u);
}

TEST(ThreadPoolStressTest, ThreadCountChangesBetweenRegions) {
  std::atomic<uint64_t> total{0};
  for (int threads : {1, 8, 2, 8, 1, 4}) {
    SetNumThreads(threads);
    ParallelFor(0, 100, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  SetNumThreads(0);
  EXPECT_EQ(total.load(), 6u * 100u);
}

/// Telemetry on and empty for the duration of one test.
class ScopedTelemetry {
 public:
  ScopedTelemetry() {
    telemetry::SetEnabled(true);
    telemetry::Reset();
  }
  ~ScopedTelemetry() {
    telemetry::Reset();
    telemetry::SetEnabled(false);
  }
};

TEST(ParallelScopeTest, ConcurrentRegionsEachRecordIntoTheirOwnSink) {
  // Two callers share the pool at the same time; every lane records into
  // the sink of the caller whose chunk it runs, never the other one's.
  ScopedThreads guard(4);
  const ScopedTelemetry telemetry_on;
  telemetry::Sink sinks[2];
  const size_t sizes[2] = {3000, 5000};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      const telemetry::Scope scope(&sinks[c]);
      for (int round = 0; round < 10; ++round) {
        ParallelFor(0, sizes[c], [&](size_t) { telemetry::Count("n"); });
        ParallelLanes(4, 0, [](size_t) { telemetry::Count("lanes"); });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t c = 0; c < 2; ++c) {
    const telemetry::Snapshot mine = sinks[c].Capture();
    EXPECT_EQ(mine.Counter("n"), 10 * sizes[c]) << c;
    EXPECT_EQ(mine.Counter("lanes"), 40u) << c;
  }
  const telemetry::Snapshot all = telemetry::Capture();
  EXPECT_EQ(all.Counter("n"), 10 * (sizes[0] + sizes[1]));
  EXPECT_EQ(all.Counter("lanes"), 80u);
}

TEST(ParallelScopeTest, MutedCallerMutesItsLanes) {
  ScopedThreads guard(4);
  const ScopedTelemetry telemetry_on;
  {
    const telemetry::Scope mute(nullptr);
    ParallelFor(0, 1000, [](size_t) { telemetry::Count("n"); });
  }
  ParallelFor(0, 10, [](size_t) { telemetry::Count("after"); });
  const telemetry::Snapshot all = telemetry::Capture();
  EXPECT_EQ(all.Counter("n"), 0u);
  // The lanes got their own (unscoped) target back.
  EXPECT_EQ(all.Counter("after"), 10u);
}

}  // namespace
}  // namespace stemroot
