#include "eval/pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../trace/srtc_v1.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/sampler.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "eval/stream.h"
#include "hw/hardware_model.h"
#include "workloads/suite.h"

namespace stemroot::eval {
namespace {

uint64_t Bits(double x) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(x));
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

constexpr uint64_t kSeed = 99;
constexpr double kScale = 0.05;

Pipeline MakePipeline() {
  Pipeline pipeline = Pipeline::Generate(workloads::SuiteId::kCasio,
                                         "bert_infer",
                                         {.seed = kSeed, .size_scale = kScale});
  pipeline.Profile(hw::GpuSpec::Rtx2080());
  return pipeline;
}

TEST(PipelineTest, GenerateMatchesHistoricalSeedDerivation) {
  const Pipeline pipeline = MakePipeline();
  // The seed contract in pipeline.h: generation and profiling derive their
  // stage seeds from the one master seed exactly as RunSuite always did.
  KernelTrace manual = workloads::MakeWorkload(
      workloads::SuiteId::kCasio, "bert_infer",
      DeriveSeed(kSeed, HashString("bert_infer")), kScale);
  hw::HardwareModel(hw::GpuSpec::Rtx2080())
      .ProfileTrace(manual, DeriveSeed(kSeed, kProfileStream));

  ASSERT_EQ(pipeline.Trace().NumInvocations(), manual.NumInvocations());
  EXPECT_EQ(Bits(pipeline.Trace().TotalDurationUs()),
            Bits(manual.TotalDurationUs()));
  EXPECT_TRUE(pipeline.Profiled());
  EXPECT_EQ(pipeline.Opts().seed, kSeed);
}

TEST(PipelineTest, SampleEqualsEvaluateRepZero) {
  const Pipeline pipeline = MakePipeline();
  const core::StemRootSampler stem;
  const core::SamplingPlan plan = pipeline.Sample(stem);
  const core::SamplingPlan rep0 = stem.BuildPlan(
      pipeline.Trace(), DeriveSeed(kSeed, HashString(stem.Name())));
  ASSERT_EQ(plan.entries.size(), rep0.entries.size());
  for (size_t i = 0; i < plan.entries.size(); ++i) {
    EXPECT_EQ(plan.entries[i].invocation, rep0.entries[i].invocation);
    EXPECT_EQ(Bits(plan.entries[i].weight), Bits(rep0.entries[i].weight));
  }
}

TEST(PipelineTest, EvaluateMatchesEvaluateRepeated) {
  const Pipeline pipeline = MakePipeline();
  const core::StemRootSampler stem;
  const EvalResult via_pipeline = pipeline.Evaluate(stem, 3);
  const EvalResult direct =
      EvaluateRepeated(stem, pipeline.Trace(), 3,
                       DeriveSeed(kSeed, HashString(stem.Name())));
  EXPECT_EQ(via_pipeline.method, direct.method);
  EXPECT_EQ(Bits(via_pipeline.speedup), Bits(direct.speedup));
  EXPECT_EQ(Bits(via_pipeline.error_pct), Bits(direct.error_pct));
  EXPECT_EQ(via_pipeline.num_samples, direct.num_samples);
  EXPECT_EQ(via_pipeline.num_clusters, direct.num_clusters);
}

TEST(PipelineTest, UnprofiledStagesThrow) {
  const Pipeline pipeline =
      Pipeline::Generate(workloads::SuiteId::kCasio, "bert_infer",
                         {.seed = kSeed, .size_scale = kScale});
  EXPECT_FALSE(pipeline.Profiled());
  const core::StemRootSampler stem;
  EXPECT_THROW(pipeline.Sample(stem), std::logic_error);
  EXPECT_THROW(pipeline.Evaluate(stem, 1), std::logic_error);
}

TEST(PipelineTest, FromTraceDetectsProfiledTraces) {
  const Pipeline generated =
      Pipeline::Generate(workloads::SuiteId::kCasio, "bert_infer",
                         {.seed = kSeed, .size_scale = kScale});
  EXPECT_FALSE(Pipeline::FromTrace(generated.Trace()).Profiled());

  const Pipeline profiled = MakePipeline();
  Pipeline resumed = Pipeline::FromTrace(profiled.Trace(), {.seed = kSeed});
  EXPECT_TRUE(resumed.Profiled());
  // A resumed profiled trace supports Sample() without re-profiling.
  const core::StemRootSampler stem;
  EXPECT_FALSE(resumed.Sample(stem).entries.empty());
}

// ---------------------------------------------------------------------------
// Out-of-core spill (DESIGN.md section 16): --trace-spill is storage,
// never semantics. The in-memory path stays byte-identical with the
// spill enabled, at any thread count, and the spill file reassembles to
// the exact trace.

/// RAII thread pin (bench/perf_scalability.cc idiom).
struct ScopedThreads {
  explicit ScopedThreads(int n) { SetNumThreads(n); }
  ~ScopedThreads() { SetNumThreads(0); }
};

Pipeline MakeSpillPipeline(const std::string& spill_dir,
                           uint64_t chunk_invocations) {
  Pipeline::Options options;
  options.seed = kSeed;
  options.size_scale = kScale;
  options.trace_chunk_invocations = chunk_invocations;
  options.trace_spill_dir = spill_dir;
  return Pipeline::GenerateProfiled(workloads::SuiteId::kCasio, "bert_infer",
                                    hw::GpuSpec::Rtx2080(), options);
}

TEST(PipelineSpillTest, ChunkedRunIsByteIdenticalToInMemory) {
  const std::string spill_dir = testing::TempDir() + "/spill_identity";
  std::filesystem::remove_all(spill_dir);
  const core::StemRootSampler stem;

  // In-memory reference at 1 thread.
  ScopedThreads one(1);
  const Pipeline reference = MakePipeline();
  const EvalResult ref_result = reference.Evaluate(stem, 2);

  // Chunked + spilled at 4 threads: the determinism contract and the
  // spill-is-storage contract, pinned together bit-for-bit.
  SetNumThreads(4);
  const Pipeline chunked = MakeSpillPipeline(spill_dir, 512);
  ASSERT_TRUE(chunked.Spill().enabled);
  EXPECT_FALSE(chunked.Spill().reused);
  EXPECT_EQ(chunked.Spill().chunk_invocations, 512u);
  EXPECT_GT(chunked.Spill().chunks, 0u);
  EXPECT_GT(chunked.Spill().bytes, 0u);

  ASSERT_EQ(chunked.Trace().NumInvocations(),
            reference.Trace().NumInvocations());
  EXPECT_EQ(Bits(chunked.Trace().TotalDurationUs()),
            Bits(reference.Trace().TotalDurationUs()));
  const EvalResult result = chunked.Evaluate(stem, 2);
  EXPECT_EQ(Bits(result.error_pct), Bits(ref_result.error_pct));
  EXPECT_EQ(Bits(result.speedup), Bits(ref_result.speedup));
  EXPECT_EQ(result.num_samples, ref_result.num_samples);
  EXPECT_EQ(result.num_clusters, ref_result.num_clusters);

  // The spill file holds the identical timeline: assembling it back and
  // re-encoding chunk 0 from memory agree byte-for-byte.
  const auto source = chunked.MakeChunkSource();
  const KernelTrace assembled = AssembleTrace(*source);
  ASSERT_EQ(assembled.NumInvocations(), reference.Trace().NumInvocations());
  EXPECT_EQ(Bits(assembled.TotalDurationUs()),
            Bits(reference.Trace().TotalDurationUs()));
  EXPECT_EQ(EncodeChunk(source->Chunk(0)),
            EncodeChunk(InMemoryChunkSource(reference.Trace(), 512).Chunk(0)));
}

TEST(PipelineSpillTest, SpillIsReusedWhenIntactAndRebuiltWhenCorrupt) {
  const std::string spill_dir = testing::TempDir() + "/spill_reuse";
  std::filesystem::remove_all(spill_dir);

  const Pipeline cold = MakeSpillPipeline(spill_dir, 256);
  ASSERT_TRUE(cold.Spill().enabled);
  EXPECT_FALSE(cold.Spill().reused);

  // Warm: every chunk digest verifies, so the file is reused as-is.
  const Pipeline warm = MakeSpillPipeline(spill_dir, 256);
  EXPECT_TRUE(warm.Spill().reused);
  EXPECT_EQ(warm.Spill().path, cold.Spill().path);
  EXPECT_EQ(warm.Spill().bytes, cold.Spill().bytes);

  // A different chunk capacity cannot reuse the old layout.
  const Pipeline recap = MakeSpillPipeline(spill_dir, 128);
  EXPECT_FALSE(recap.Spill().reused);

  // Corrupt one byte mid-file: the next run must detect it via the chunk
  // digests and rebuild, landing on identical bytes (corrupt spill costs
  // a rewrite, never a crash, never wrong chunks).
  {
    std::fstream file(cold.Spill().path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(static_cast<std::streamoff>(cold.Spill().bytes / 2));
    char byte = 0;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(cold.Spill().bytes / 2));
    file.put(static_cast<char>(byte ^ 0x5a));
  }
  const Pipeline rebuilt = MakeSpillPipeline(spill_dir, 128);
  EXPECT_FALSE(rebuilt.Spill().reused);
  EXPECT_TRUE(FileChunkSource(rebuilt.Spill().path).Reader().VerifyChunk(0));
}

TEST(PipelineSpillTest, VersionOneSpillIsRebuilt) {
  // A spill written by a version-1 build, at the path this build reads:
  // the run must reject it, rebuild a current file and keep its results.
  const std::string spill_dir = testing::TempDir() + "/spill_v1";
  std::filesystem::remove_all(spill_dir);
  const core::StemRootSampler stem;
  const EvalResult in_memory = MakePipeline().Evaluate(stem, 2);

  const std::string path = MakeSpillPipeline(spill_dir, 256).Spill().path;
  std::string v2;
  {
    std::ifstream in(path, std::ios::binary);
    v2.assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << testing_srtc::ToVersionOneFile(v2);
  EXPECT_THROW(ChunkedTraceReader{path}, std::runtime_error);

  telemetry::SetEnabled(true);
  telemetry::Reset();
  const Pipeline rebuilt = MakeSpillPipeline(spill_dir, 256);
  const telemetry::Snapshot snap = telemetry::Capture();
  telemetry::Reset();
  telemetry::SetEnabled(false);
  EXPECT_EQ(snap.Counter("cache.spill_rebuild"), 1u);
  EXPECT_EQ(snap.Counter("cache.spill_reuse"), 0u);
  EXPECT_FALSE(rebuilt.Spill().reused);
  EXPECT_EQ(rebuilt.Spill().bytes, v2.size());
  // The rebuilt file holds the in-memory timeline exactly.
  const KernelTrace assembled = AssembleTrace(*rebuilt.MakeChunkSource());
  ASSERT_EQ(assembled.NumInvocations(), rebuilt.Trace().NumInvocations());
  EXPECT_EQ(Bits(assembled.TotalDurationUs()),
            Bits(rebuilt.Trace().TotalDurationUs()));

  const EvalResult result = rebuilt.Evaluate(stem, 2);
  EXPECT_EQ(Bits(result.error_pct), Bits(in_memory.error_pct));
  EXPECT_EQ(Bits(result.speedup), Bits(in_memory.speedup));
  EXPECT_EQ(result.num_samples, in_memory.num_samples);
  EXPECT_EQ(result.num_clusters, in_memory.num_clusters);
}

TEST(PipelineSpillTest, MakeChunkSourceDefaultsToInMemory) {
  const Pipeline pipeline = MakePipeline();
  EXPECT_FALSE(pipeline.Spill().enabled);
  const auto source = pipeline.MakeChunkSource();
  EXPECT_EQ(source->NumInvocations(), pipeline.Trace().NumInvocations());
  // No chunk size configured: one whole-trace chunk (the degenerate
  // in-memory case).
  EXPECT_EQ(source->NumChunks(), 1u);
}

TEST(PipelineSpillTest, StreamTraceIsSourceInvariant) {
  // The same timeline streamed from memory and from the spill file must
  // produce bit-identical statistics and cluster structure, at any chunk
  // size that preserves order.
  const std::string spill_dir = testing::TempDir() + "/spill_stream";
  std::filesystem::remove_all(spill_dir);
  const Pipeline pipeline = MakeSpillPipeline(spill_dir, 384);
  const StreamOptions options{.seed = kSeed};

  const StreamResult from_file = StreamTrace(*pipeline.MakeChunkSource(),
                                             options);
  const StreamResult from_memory = StreamTrace(
      InMemoryChunkSource(pipeline.Trace(), 384), options);
  const StreamResult coarser = StreamTrace(
      InMemoryChunkSource(pipeline.Trace(), 4096), options);

  EXPECT_EQ(from_file.invocations, pipeline.Trace().NumInvocations());
  for (const StreamResult* other : {&from_memory, &coarser}) {
    EXPECT_EQ(from_file.invocations, other->invocations);
    EXPECT_EQ(Bits(from_file.total_duration_us),
              Bits(other->total_duration_us));
    ASSERT_EQ(from_file.clusters.size(), other->clusters.size());
    for (size_t i = 0; i < from_file.clusters.size(); ++i) {
      EXPECT_EQ(from_file.clusters[i].n, other->clusters[i].n);
      EXPECT_EQ(Bits(from_file.clusters[i].mean),
                Bits(other->clusters[i].mean));
    }
  }
  // Chunk count is a pacing artifact, not part of the result identity.
  EXPECT_NE(from_file.chunks, coarser.chunks);
}

TEST(PipelineSpillTest, ConcurrentSpillsOfOneWorkloadNeverTear) {
  // Sessions opening one workload spill to the same path at once. Each
  // writes its own temp file and renames it into place, so the others'
  // reuse checks and chunk sources only ever see a complete file.
  constexpr int kOpeners = 4;
  Pipeline::Options options;
  options.seed = kSeed;
  options.size_scale = 0.5;
  options.trace_chunk_invocations = 64;
  for (int round = 0; round < 4; ++round) {
    options.trace_spill_dir =
        testing::TempDir() + "/spill_race_" + std::to_string(round);
    std::filesystem::remove_all(options.trace_spill_dir);
    std::atomic<int> ready{0};
    std::vector<std::string> errors(kOpeners);
    std::vector<uint64_t> invocations(kOpeners, 0);
    std::vector<uint64_t> total_bits(kOpeners, 0);
    std::vector<std::thread> openers;
    for (int t = 0; t < kOpeners; ++t) {
      openers.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kOpeners) std::this_thread::yield();
        try {
          const Pipeline pipeline = Pipeline::GenerateProfiled(
              workloads::SuiteId::kCasio, "bert_infer",
              hw::GpuSpec::Rtx2080(), options);
          // Read the spill a few times, while the other openers may
          // still be spilling over it.
          for (int pass = 0; pass < 3; ++pass) {
            const FileChunkSource file(pipeline.Spill().path);
            for (size_t i = 0; i < file.Reader().NumChunks(); ++i)
              if (!file.Reader().VerifyChunk(i))
                errors[t] = "chunk " + std::to_string(i) + " is torn";
            const KernelTrace assembled =
                AssembleTrace(*pipeline.MakeChunkSource());
            invocations[t] = assembled.NumInvocations();
            total_bits[t] = Bits(assembled.TotalDurationUs());
          }
        } catch (const std::exception& e) {
          errors[t] = e.what();
        }
      });
    }
    for (std::thread& t : openers) t.join();
    for (int t = 0; t < kOpeners; ++t) {
      EXPECT_EQ(errors[t], "") << round << "/" << t;
      EXPECT_GT(invocations[t], 0u);
      EXPECT_EQ(invocations[t], invocations[0]) << round << "/" << t;
      EXPECT_EQ(total_bits[t], total_bits[0]) << round << "/" << t;
    }
    for (const auto& entry :
         std::filesystem::directory_iterator(options.trace_spill_dir))
      EXPECT_EQ(entry.path().extension(), ".srtc") << entry.path();
  }
}

}  // namespace
}  // namespace stemroot::eval
