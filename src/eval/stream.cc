#include "eval/stream.h"

#include <functional>
#include <memory>

#include "common/resource.h"
#include "common/telemetry.h"

namespace stemroot::eval {

StreamResult StreamTrace(const ChunkSource& source,
                         const StreamOptions& options) {
  telemetry::Span span("stream");
  StreamResult result;
  result.resident_budget_bytes = source.ResidentBudgetBytes();
  // The whole pass holds at most the shared header plus two chunk budgets
  // (the chunk being folded and one being materialized). This is a pure
  // function of header + chunk capacity -- never of timeline length or
  // thread count -- so the charge is schedule-invariant (DESIGN.md §15).
  resource::AccountPeak("trace", result.resident_budget_bytes);

  std::unique_ptr<core::StreamingTraceClusterer> clusterer;
  if (options.cluster)
    clusterer = std::make_unique<core::StreamingTraceClusterer>(
        options.clustering, source.Header(), options.seed);

  // Read ahead: one lane of the region that folds chunk i reads, verifies
  // and decodes chunk i + 1, folds its durations in timeline order and
  // buckets it by kernel, so only the first read runs outside a region.
  // Reads stay serial: the file reader shares one stream. Resident at
  // once: chunk i's buckets (8 B per invocation), chunk i + 1 and its
  // buckets -- within the two chunk budgets charged above.
  using Buckets = core::StreamingTraceClusterer::Buckets;
  const auto read = [&](size_t i, Buckets& out) {
    const std::vector<KernelInvocation> chunk = source.Chunk(i);
    if (clusterer) clusterer->BucketChunk(chunk, out);
    for (const KernelInvocation& inv : chunk) {
      result.total_duration_us += inv.duration_us;
      if (inv.duration_us > 0.0) result.durations.Add(inv.duration_us);
    }
    result.invocations += chunk.size();
    ++result.chunks;
  };
  const size_t num_chunks = source.NumChunks();
  Buckets buckets, next;
  if (num_chunks > 0) read(0, buckets);
  for (size_t i = 0; i < num_chunks; ++i) {
    std::function<void()> read_ahead;
    if (i + 1 < num_chunks) read_ahead = [&] { read(i + 1, next); };
    if (clusterer) clusterer->ObserveBuckets(buckets, read_ahead);
    else if (read_ahead) read_ahead();
    std::swap(buckets, next);
  }

  if (clusterer) {
    result.clusters = clusterer->AllStats();
    result.splits = clusterer->TotalSplits();
    result.merges = clusterer->TotalMerges();
  }

  telemetry::Count("eval.stream.passes");
  telemetry::Count("eval.stream.invocations", result.invocations);
  telemetry::Count("eval.stream.chunks", result.chunks);
  telemetry::Record("eval.stream.chunk_invocations",
                    static_cast<double>(source.ChunkCapacity()));
  return result;
}

}  // namespace stemroot::eval
