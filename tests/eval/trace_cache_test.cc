#include "eval/trace_cache.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/stem.h"
#include "eval/metrics.h"
#include "eval/pipeline.h"
#include "hw/gpu_spec.h"
#include "hw/hardware_model.h"
#include "trace/chunked.h"
#include "workloads/suite.h"

namespace stemroot::eval {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kSeed = 99;
constexpr double kScale = 0.05;
constexpr auto kSuite = workloads::SuiteId::kCasio;
constexpr const char* kWorkload = "bert_infer";

uint64_t Bits(double x) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(x));
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

void ExpectSameResult(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(Bits(a.speedup), Bits(b.speedup));
  EXPECT_EQ(Bits(a.error_pct), Bits(b.error_pct));
  EXPECT_EQ(Bits(a.estimated_total_us), Bits(b.estimated_total_us));
  EXPECT_EQ(Bits(a.true_total_us), Bits(b.true_total_us));
  EXPECT_EQ(a.num_samples, b.num_samples);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
}

TraceCacheKey MakeKey() {
  TraceCacheKey key;
  key.suite = "casio";
  key.workload = kWorkload;
  key.gpu_digest = GpuDigest(hw::HardwareModel(hw::GpuSpec::Rtx2080()));
  key.scale = kScale;
  key.seed = kSeed;
  key.build_stamp = BuildStamp();
  return key;
}

/// Every test gets its own cache directory and leaves the process-wide
/// cache disabled again afterwards (the library default other tests rely
/// on).
class TraceCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sr_trace_cache_test_" +
            std::to_string(
                std::hash<std::thread::id>{}(std::this_thread::get_id())) +
            "_" + std::to_string(counter_++));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    SetTraceCacheDir("none");
    telemetry::SetEnabled(false);
    telemetry::Reset();
    SetNumThreads(0);
    fs::remove_all(dir_);
  }

  std::string DirStr() const { return dir_.string(); }

  /// The single entry file of the cache directory.
  fs::path OnlyEntry() const {
    fs::path found;
    size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      ++count;
      found = entry.path();
    }
    EXPECT_EQ(count, 1u);
    return found;
  }

  fs::path dir_;
  static int counter_;
};

int TraceCacheTest::counter_ = 0;

TEST(TraceCacheKeyTest, EveryFieldChangesTheKey) {
  const TraceCacheKey base = MakeKey();
  TraceCacheKey k = base;
  EXPECT_EQ(k.KeyString(), base.KeyString());
  k.suite = "rodinia";
  EXPECT_NE(k.KeyString(), base.KeyString());
  k = base;
  k.workload = "resnet_train";
  EXPECT_NE(k.KeyString(), base.KeyString());
  k = base;
  k.gpu_digest = GpuDigest(hw::HardwareModel(hw::GpuSpec::H100()));
  EXPECT_NE(k.KeyString(), base.KeyString());
  k = base;
  k.scale = kScale * 2;
  EXPECT_NE(k.KeyString(), base.KeyString());
  k = base;
  k.seed = kSeed + 1;
  EXPECT_NE(k.KeyString(), base.KeyString());
  k = base;
  k.build_stamp = "other-build";
  EXPECT_NE(k.KeyString(), base.KeyString());
}

TEST(TraceCacheKeyTest, GpuDigestCoversSpecAndTimingParams) {
  const hw::GpuSpec spec = hw::GpuSpec::Rtx2080();
  EXPECT_EQ(GpuDigest(hw::HardwareModel(spec)),
            GpuDigest(hw::HardwareModel(spec)));
  // A DSE variant with the same preset lineage must not collide.
  EXPECT_NE(GpuDigest(hw::HardwareModel(spec)),
            GpuDigest(hw::HardwareModel(spec.WithCacheScale(2.0))));
  EXPECT_NE(GpuDigest(hw::HardwareModel(spec)),
            GpuDigest(hw::HardwareModel(spec.WithSmScale(0.5))));
  // Timing parameters are part of the digest, not just the GpuSpec.
  hw::TimingParams params;
  params.jitter_base *= 2;
  EXPECT_NE(GpuDigest(hw::HardwareModel(spec)),
            GpuDigest(hw::HardwareModel(spec, params)));
}

TEST_F(TraceCacheTest, StoreLoadRoundTripsTheExactBytes) {
  const Pipeline cold = Pipeline::Generate(kSuite, kWorkload,
                                           {.seed = kSeed,
                                            .size_scale = kScale})
                            .Profile(hw::GpuSpec::Rtx2080());
  const TraceCache cache(DirStr());
  const TraceCacheKey key = MakeKey();
  EXPECT_FALSE(cache.Load(key).has_value());
  EXPECT_TRUE(cache.Store(key, cold.Trace()));
  const std::optional<KernelTrace> warm = cache.Load(key);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(EncodeTrace(*warm), EncodeTrace(cold.Trace()));
}

TEST_F(TraceCacheTest, GenerateProfiledColdThenWarmIsByteIdentical) {
  SetTraceCacheDir(DirStr());
  const Pipeline::Options options{.seed = kSeed, .size_scale = kScale};
  const hw::GpuSpec spec = hw::GpuSpec::Rtx2080();

  const Pipeline cold =
      Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  EXPECT_EQ(OnlyEntry().extension(), ".srce");

  const Pipeline warm =
      Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  EXPECT_EQ(EncodeTrace(warm.Trace()), EncodeTrace(cold.Trace()));
  EXPECT_TRUE(warm.Profiled());
  EXPECT_EQ(warm.SuiteName(), cold.SuiteName());
  EXPECT_EQ(warm.WorkloadName(), cold.WorkloadName());
  EXPECT_EQ(warm.GpuName(), spec.name);

  // The downstream stages see identical inputs, so evaluation results are
  // bit-equal too.
  const core::StemRootSampler stem;
  ExpectSameResult(warm.Evaluate(stem, 2), cold.Evaluate(stem, 2));
}

TEST_F(TraceCacheTest, WarmHitIsByteIdenticalAtAnyThreadCount) {
  SetTraceCacheDir(DirStr());
  const Pipeline::Options options{.seed = kSeed, .size_scale = kScale};
  const hw::GpuSpec spec = hw::GpuSpec::Rtx2080();

  SetNumThreads(1);
  const std::string cold =
      EncodeTrace(Pipeline::GenerateProfiled(kSuite, kWorkload, spec,
                                             options)
                      .Trace());
  SetNumThreads(4);
  const std::string warm =
      EncodeTrace(Pipeline::GenerateProfiled(kSuite, kWorkload, spec,
                                             options)
                      .Trace());
  // And uncached at yet another thread count for the same bytes.
  SetTraceCacheDir("none");
  SetNumThreads(3);
  const std::string uncached =
      EncodeTrace(Pipeline::GenerateProfiled(kSuite, kWorkload, spec,
                                             options)
                      .Trace());
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cold, uncached);
}

TEST_F(TraceCacheTest, WarmRunReplaysStageCountersAndSpans) {
  SetTraceCacheDir(DirStr());
  const Pipeline::Options options{.seed = kSeed, .size_scale = kScale};
  const hw::GpuSpec spec = hw::GpuSpec::Rtx2080();

  telemetry::SetEnabled(true);
  telemetry::Reset();
  Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  const telemetry::Snapshot cold = telemetry::Capture();
  EXPECT_EQ(cold.Counter("cache.hit"), 0u);
  EXPECT_EQ(cold.Counter("cache.miss"), 1u);
  EXPECT_EQ(cold.Counter("cache.store"), 1u);

  telemetry::Reset();
  Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  const telemetry::Snapshot warm = telemetry::Capture();
  EXPECT_EQ(warm.Counter("cache.hit"), 1u);
  EXPECT_EQ(warm.Counter("cache.miss"), 0u);

  // The deterministic counters the skipped stages would have produced are
  // replayed, so cold and warm snapshots agree on every non-cache.*
  // counter and distribution (the determinism contract `stemroot compare`
  // gates on).
  const auto non_cache = [](const telemetry::Snapshot& snap) {
    std::map<std::string, uint64_t> counters;
    for (const auto& [name, value] : snap.Counters())
      if (name.rfind("cache.", 0) != 0) counters[name] = value;
    return counters;
  };
  EXPECT_EQ(non_cache(cold), non_cache(warm));
  EXPECT_EQ(cold.DistributionsJson(), warm.DistributionsJson());

  // Stage spans still exist on the warm path (manifests and stage checks
  // rely on them), plus the cache.load span.
  EXPECT_TRUE(warm.HasSpan("generate"));
  EXPECT_TRUE(warm.HasSpan("profile"));
  EXPECT_TRUE(warm.HasSpan("cache.load"));
}

TEST_F(TraceCacheTest, TruncatedEntryFallsBackToRecompute) {
  SetTraceCacheDir(DirStr());
  const Pipeline::Options options{.seed = kSeed, .size_scale = kScale};
  const hw::GpuSpec spec = hw::GpuSpec::Rtx2080();

  const Pipeline cold =
      Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  fs::resize_file(OnlyEntry(), 32);

  const Pipeline again =
      Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  EXPECT_EQ(EncodeTrace(again.Trace()), EncodeTrace(cold.Trace()));
  // The recompute re-stored a valid entry; the next run hits it.
  const TraceCache cache(DirStr());
  EXPECT_TRUE(cache.Load(MakeKey()).has_value());
}

TEST_F(TraceCacheTest, ChecksumMismatchFallsBackToRecompute) {
  SetTraceCacheDir(DirStr());
  const Pipeline::Options options{.seed = kSeed, .size_scale = kScale};
  const hw::GpuSpec spec = hw::GpuSpec::Rtx2080();

  const Pipeline cold =
      Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  {
    std::fstream f(OnlyEntry(),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(-9, std::ios::end);
    f.put('\x5a');
  }
  const Pipeline again =
      Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  EXPECT_EQ(EncodeTrace(again.Trace()), EncodeTrace(cold.Trace()));
}

TEST_F(TraceCacheTest, UndecodablePayloadIsAMiss) {
  // The entry checksum passes but the payload is not one well-formed SRTC
  // trace (a truncated encoding): a plain miss, never served.
  const TraceCacheKey key = MakeKey();
  KernelTrace trace("wl");
  trace.InternKernel("k");
  const std::string payload = EncodeTrace(trace);
  ArtifactCache(DirStr()).Put(key.KeyString(),
                              payload.substr(0, payload.size() - 1));
  telemetry::SetEnabled(true);
  telemetry::Reset();
  EXPECT_FALSE(TraceCache(DirStr()).Load(key).has_value());
  EXPECT_EQ(telemetry::Capture().Counter("cache.corrupt"), 1u);
}

TEST_F(TraceCacheTest, StaleBuildStampIsUnreachableNotServed) {
  // An entry stored under a different build stamp digests to a different
  // file name, so the current binary's lookup simply misses it.
  const TraceCache cache(DirStr());
  TraceCacheKey stale = MakeKey();
  stale.build_stamp = "deadbeef+dirty|GNU 0.0.0|Debug|";
  KernelTrace trace =
      Pipeline::Generate(kSuite, kWorkload, {.seed = kSeed,
                                             .size_scale = kScale})
          .Profile(hw::GpuSpec::Rtx2080())
          .Trace();
  ASSERT_TRUE(cache.Store(stale, trace));
  EXPECT_FALSE(cache.Load(MakeKey()).has_value());
  EXPECT_TRUE(cache.Load(stale).has_value());
}

TEST_F(TraceCacheTest, DisabledCacheWritesNothing) {
  SetTraceCacheDir("none");
  EXPECT_EQ(DefaultTraceCache(), nullptr);
  Pipeline::GenerateProfiled(kSuite, kWorkload, hw::GpuSpec::Rtx2080(),
                             {.seed = kSeed, .size_scale = kScale});
  EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(TraceCacheTest, SetTraceCacheDirTogglesTheDefault) {
  EXPECT_EQ(DefaultTraceCache(), nullptr);
  SetTraceCacheDir(DirStr());
  ASSERT_NE(DefaultTraceCache(), nullptr);
  EXPECT_EQ(DefaultTraceCache()->Artifacts().Dir(), DirStr());
  SetTraceCacheDir("");
  EXPECT_EQ(DefaultTraceCache(), nullptr);
}

}  // namespace
}  // namespace stemroot::eval
