#include "eval/stream.h"

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

  // Read ahead: chunk i + 1 is read, verified and decoded on one more lane
  // of the region whose kernel lanes fold chunk i, so at most two chunks
  // are resident. Reads stay serial: the file reader shares one stream.
  const size_t num_chunks = source.NumChunks();
  std::vector<KernelInvocation> chunk;
  if (num_chunks > 0) chunk = source.Chunk(0);
  for (size_t i = 0; i < num_chunks; ++i) {
    std::vector<KernelInvocation> next;
    const auto fold_and_read = [&] {
      for (const KernelInvocation& inv : chunk) {
        result.total_duration_us += inv.duration_us;
        if (inv.duration_us > 0.0) result.durations.Add(inv.duration_us);
      }
      if (i + 1 < num_chunks) next = source.Chunk(i + 1);
    };
    if (clusterer) clusterer->ObserveChunk(chunk, fold_and_read);
    else fold_and_read();
    result.invocations += chunk.size();
    ++result.chunks;
    chunk = std::move(next);
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
