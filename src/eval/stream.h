/// \file
/// Out-of-core streaming evaluation: run the trace-consuming side of the
/// pipeline (duration statistics + ROOT clustering) over a ChunkSource
/// without ever materializing the timeline (ROADMAP item 2, DESIGN.md
/// §16).
///
/// The in-memory pipeline holds the whole KernelTrace resident and
/// charges its full ApproxBytes() to the "trace" resource category.
/// StreamTrace instead visits chunks in timeline order, folding each into
///
///   - one StreamingStats over all durations (Welford: exact mean/var),
///   - one core::StreamingTraceClusterer (per-kernel streaming ROOT),
///
/// while the next chunk is read and decoded alongside the fold, and
/// discarding each chunk once folded. The logical "trace" charge is
/// therefore AccountPeak(header + 2 chunk budgets) --
/// a deterministic function of the header and the chunk capacity, never
/// of the timeline length or the thread count. That is the memory
/// contract that lets a 10^8..10^9-invocation synthetic suite stream
/// end-to-end in a fixed footprint.
///
/// Results are a pure function of (header, chunk contents in order,
/// seed): the same timeline streamed from memory, from an "SRTC" file,
/// or from a ReplicatedChunkSource produces bit-identical statistics and
/// cluster structure at any chunk size that preserves order -- pinned by
/// the chunked-vs-in-memory equivalence tests.

#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "core/stem.h"
#include "core/streaming_root.h"
#include "trace/chunked.h"

namespace stemroot::eval {

/// Knobs of one streaming pass.
struct StreamOptions {
  /// Master seed; per-kernel clustering streams derive as
  /// DeriveSeed(seed, kernel_id) (the StreamingTraceClusterer contract).
  uint64_t seed = 42;
  /// Streaming ROOT configuration (epsilon/confidence under root.stem).
  core::StreamingRootConfig clustering;
  /// When false, skip clustering and only fold duration statistics (the
  /// cheap scan mode for format/throughput work).
  bool cluster = true;
};

/// Aggregates of one streaming pass.
struct StreamResult {
  uint64_t invocations = 0;      ///< timeline length visited
  uint64_t chunks = 0;           ///< chunks materialized
  double total_duration_us = 0;  ///< sum of profiled durations (t* of Eq. 1)
  /// All profiled durations folded online (count excludes non-positive
  /// durations, matching the clusterer's feed contract).
  StreamingStats durations;
  /// Flat per-kernel cluster stats (empty when options.cluster == false).
  std::vector<core::ClusterStats> clusters;
  uint64_t splits = 0;  ///< lifetime streaming-ROOT splits
  uint64_t merges = 0;  ///< lifetime streaming-ROOT merges
  /// The deterministic logical "trace" bytes charged for this pass
  /// (ChunkSource::ResidentBudgetBytes()).
  uint64_t resident_budget_bytes = 0;
};

/// Stream every chunk of `source` in timeline order through the duration
/// accumulator and (optionally) streaming ROOT. Emits a "stream" span
/// with eval.stream.* counters and charges the bounded trace budget.
/// Throws std::runtime_error on storage defects (a FileChunkSource with a
/// corrupt chunk).
StreamResult StreamTrace(const ChunkSource& source,
                         const StreamOptions& options);

}  // namespace stemroot::eval
