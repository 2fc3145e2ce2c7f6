/// \file
/// stream_ooc: the out-of-core path. The gpt2 trace is spilled once during
/// set-up to an SRTC file with 65,536 invocations per chunk (17 chunks,
/// ~104 MB), then streamed through eval::StreamTrace from a
/// FileChunkSource with clustering on. Its two layers are chunk
/// read/verify/decode and streaming ROOT; there is no batch ROOT and no
/// simulator. The page cache is warm after the warm-up pass, so this
/// measures decoding, not the disk. A 10^8-invocation stream would take
/// minutes per pass (~4 us per invocation), hence the 1.09M-invocation
/// file.

#include <filesystem>

#include "eval/stream.h"
#include "harness.h"
#include "trace/chunked.h"

namespace stemroot::bench {

namespace {

constexpr uint64_t kChunkInvocations = 65536;

std::string DigestOf(const eval::StreamResult& r) {
  Digest d;
  d.Add(static_cast<double>(r.invocations))
      .Add(static_cast<double>(r.chunks))
      .Add(r.total_duration_us)
      .Add(static_cast<double>(r.durations.Count()))
      .Add(r.durations.Mean())
      .Add(r.durations.Variance())
      .Add(r.durations.Min())
      .Add(r.durations.Max())
      .Add(r.durations.Sum())
      .Add(static_cast<double>(r.splits))
      .Add(static_cast<double>(r.merges))
      .Add(static_cast<double>(r.resident_budget_bytes));
  for (const core::ClusterStats& c : r.clusters)
    d.Add(static_cast<double>(c.n)).Add(c.mean).Add(c.stddev);
  return d.Hex();
}

}  // namespace

void RunStreamOoc(Run& run) {
  const uint64_t seed = run.Cfg().seed;
  const std::string path = run.Cfg().work_dir + "/gpt2.srtc";

  const std::unique_ptr<FileChunkSource> source = run.Setup([&] {
    {
      // The in-memory trace lives only until it is spilled.
      const eval::Pipeline pipeline = GenerateProfiled(
          workloads::SuiteId::kHuggingface, "gpt2", seed, 1.0);
      Span span("trace.SpillTraceChunked");
      SpillTraceChunked(pipeline.Trace(), path, kChunkInvocations);
    }
    return Traced("trace.FileChunkSource",
                  [&] { return std::make_unique<FileChunkSource>(path); });
  });
  const double spill_bytes =
      static_cast<double>(std::filesystem::file_size(path));
  const double invocations = static_cast<double>(source->NumInvocations());
  run.SetSizes("huggingface gpt2 scale 1, " +
               std::to_string(source->NumInvocations()) + " invocations, " +
               std::to_string(kChunkInvocations) + " per chunk");

  const eval::StreamOptions options{.seed = seed};
  eval::StreamResult result;
  run.Passes([&](uint64_t) {
    result = Traced("eval.StreamTrace",
                    [&] { return eval::StreamTrace(*source, options); });
    run.Check("stream", DigestOf(result));
  });
  run.Set("stream_minv_per_s", invocations / Median(run.PassSamples()) / 1e6);

  // StreamTrace = ChunkSource::Chunk + the duration fold +
  // StreamingTraceClusterer::ObserveChunk, chunk by chunk.
  run.Decompose([&] {
    eval::StreamResult serial;
    serial.resident_budget_bytes = source->ResidentBudgetBytes();
    core::StreamingTraceClusterer clusterer(options.clustering,
                                            source->Header(), options.seed);
    for (size_t i = 0; i < source->NumChunks(); ++i) {
      const std::vector<KernelInvocation> chunk =
          Traced("trace.Chunk", [&] { return source->Chunk(i); });
      {
        Span span("eval.StreamFold");
        for (const KernelInvocation& inv : chunk) {
          serial.total_duration_us += inv.duration_us;
          if (inv.duration_us > 0.0) serial.durations.Add(inv.duration_us);
        }
      }
      {
        Span span("core.ObserveChunk");
        clusterer.ObserveChunk(chunk);
      }
      serial.invocations += chunk.size();
      ++serial.chunks;
    }
    serial.clusters = clusterer.AllStats();
    serial.splits = clusterer.TotalSplits();
    serial.merges = clusterer.TotalMerges();
    run.Check("stream", DigestOf(serial));
  });
  if (!run.Cfg().trace) return;

  Tracer& tracer = Tracer::Get();
  const double chunk_read_s = tracer.Total("trace.Chunk");
  const double streaming_root_s = tracer.Total("core.ObserveChunk");
  run.Set("workloads.generate_s", tracer.Total("workloads.generate"));
  run.Set("workloads.invocations", invocations);
  run.Set("hw.profile_s", tracer.Total("hw.profile"));
  run.Set("trace.spill_write_s", tracer.Total("trace.SpillTraceChunked"));
  run.Set("trace.spill_bytes", spill_bytes);
  run.Set("trace.chunk_read_s", chunk_read_s);
  run.Set("trace.chunks", static_cast<double>(result.chunks));
  run.Set("trace.read_mb_per_s", spill_bytes / chunk_read_s / 1e6);
  run.Set("eval.stream_fold_s", tracer.Total("eval.StreamFold"));
  run.Set("core.streaming_root_s", streaming_root_s);
  run.Set("core.streaming_root_ns_per_inv",
          streaming_root_s / invocations * 1e9);
  run.Set("core.streaming_splits", static_cast<double>(result.splits));
  run.Set("core.streaming_merges", static_cast<double>(result.merges));
}

}  // namespace stemroot::bench
