/// \file
/// The one binary trace encoding ("SRTC") and the chunk-iterator
/// abstraction that lets the pipeline stream a billion-invocation workload
/// past the engine in bounded memory (DESIGN.md §16).
///
/// # Encoding (version 2, explicitly little-endian)
///
///   [header]
///     magic "SRTC" | u32 version | u64 chunk_capacity |
///     workload name (u32 len + bytes) | u32 num_types |
///     per type: name (u32 len + bytes) | u32 num_basic_blocks |
///               u32 num_weights | f32 weights[num_weights]
///
/// followed by chunk payloads. Each chunk payload is self-delimiting and
/// columnar:
///
///     u64 count |
///     kernel_id u32[count] | context_id u32[count] |
///     grid_x,grid_y,grid_z,block_x,block_y,block_z u32[count] each |
///     instructions u64[count] | footprint_bytes u64[count] |
///     mem_fraction, shared_fraction, locality, coalescing,
///     branch_divergence, fp16_fraction, fp32_fraction, ilp,
///     input_scale, store_fraction f32[count] each |
///     duration_us f64[count]
///
/// The invocation `seq` field is implicit: chunk i spans global indices
/// [i * chunk_capacity, i * chunk_capacity + count).
///
/// # Two containers
///
/// An in-memory trace (EncodeTrace) is the header plus exactly one chunk
/// payload, with chunk_capacity = max(1, invocations). It is the payload
/// of a trace-cache entry (eval/trace_cache.h), whose SRCE checksum
/// already covers every byte, so it carries no digest of its own.
///
/// A file (ChunkedTraceWriter, SpillTraceChunked) is the header, then
/// back-to-back chunk payloads, then an index:
///
///   [footer]
///     per chunk: u64 offset | u64 count | u64 digest
///   [trailer]  (fixed 40 bytes at end of file)
///     u64 footer_offset | u64 num_chunks | u64 total_invocations |
///     u64 header_digest | u32 version | magic "SRTF"
///
/// where `header_digest` is XXH64 (Xxh64 in common/cache.h) over the
/// header bytes, checked at open before the header is decoded, and
/// `digest` is XXH64 over exactly one chunk's payload bytes, so every
/// chunk is independently loadable and independently verifiable: a
/// reader seeks the footer, picks any chunk, reads `offset..offset+len`
/// and checks the digest -- no scan of preceding chunks, which also makes
/// the layout mmap-friendly (all addressing is absolute offsets into an
/// immutable file). CLI trace files, `--trace-spill` spills and
/// out-of-core streams all use this container. Version and magic end the
/// trailer in every version, so a file of another version is rejected at
/// open by its version number, never misparsed.
///
/// Every decoder shares one bounds-checked byte reader: each length or
/// count prefix is checked against the bytes remaining before anything is
/// sized from it. Failure contract mirrors the artifact cache
/// (common/cache.h): any defect found while decoding, *opening* a file
/// (bad magic/version, header digest mismatch, inconsistent footer,
/// offsets outside the file) or *reading* a chunk (short read, digest
/// mismatch) throws std::runtime_error. Callers that treat a chunked file
/// as a cache entry (eval::Pipeline's spill reuse) catch and rebuild --
/// corrupt bytes on disk can only cost a recompute, never serve wrong
/// data.
///
/// # ChunkSource
///
/// Streaming consumers (core::StreamingTraceClusterer, eval::StreamTrace)
/// are written against the ChunkSource interface, not a concrete file:
///
///   - InMemoryChunkSource slices an existing KernelTrace (no copy of the
///     timeline until a chunk is materialized);
///   - FileChunkSource reads an "SRTC" file chunk by chunk;
///   - ReplicatedChunkSource tiles a small profiled base trace out to an
///     arbitrary logical population (the 10^8..10^9-invocation synthetic
///     suites of the perf_scalability bench) without ever materializing
///     it.
///
/// All three yield byte-identical chunk contents for the same underlying
/// timeline, which is what pins the chunked-vs-in-memory equivalence
/// tests.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.h"

namespace stemroot {

/// Version tag of the "SRTC" trace encoding.
uint32_t ChunkedTraceFormatVersion();

/// Default invocations per chunk (2^20 invocations ~= 96 MiB resident).
inline constexpr uint64_t kDefaultChunkInvocations = 1u << 20;

/// Footer metadata of one chunk.
struct ChunkInfo {
  uint64_t offset = 0;  ///< absolute file offset of the chunk payload
  uint64_t count = 0;   ///< invocations in this chunk
  uint64_t digest = 0;  ///< XXH64 over the payload bytes
};

/// Encode one chunk of invocations as a self-delimiting columnar payload
/// (the byte string a chunk occupies on disk).
std::string EncodeChunk(std::span<const KernelInvocation> invocations);

/// Decode a payload produced by EncodeChunk. `first_seq` rebuilds the
/// implicit global seq numbering. Every length prefix is bounds-checked
/// against the payload size before any allocation; throws
/// std::runtime_error on truncation or trailing bytes.
std::vector<KernelInvocation> DecodeChunk(std::string_view payload,
                                          uint64_t first_seq);

/// Encode a whole trace as the SRTC header plus one chunk payload (the
/// trace-cache payload; no footer, no digest).
std::string EncodeTrace(const KernelTrace& trace);

/// Decode bytes produced by EncodeTrace. Throws std::runtime_error on any
/// defect: a corrupt prefix, truncation, trailing bytes, or an
/// invocation whose kernel_id is not in the kernel-type table.
KernelTrace DecodeTrace(std::string_view bytes);

/// Streaming writer: header up front, invocations appended in timeline
/// order, chunks flushed as they fill, footer on Finish(). `header`
/// supplies the workload name and kernel-type table; its invocations are
/// ignored. A file is only valid after Finish() -- an abandoned writer
/// leaves a footerless file every reader rejects.
class ChunkedTraceWriter {
 public:
  ChunkedTraceWriter(const std::string& path, const KernelTrace& header,
                     uint64_t chunk_invocations = kDefaultChunkInvocations);
  ~ChunkedTraceWriter();

  ChunkedTraceWriter(const ChunkedTraceWriter&) = delete;
  ChunkedTraceWriter& operator=(const ChunkedTraceWriter&) = delete;

  /// Append one invocation (kernel_id must be valid in the header table).
  void Append(const KernelInvocation& inv);
  /// Append a batch; flushes whole chunks as the buffer fills.
  void Append(std::span<const KernelInvocation> invocations);

  uint64_t NumAppended() const { return appended_; }
  uint64_t ChunkCapacity() const { return chunk_invocations_; }

  /// Flush the partial tail chunk and write the footer + trailer.
  /// Idempotent; called by the destructor only if never called (best
  /// effort -- call explicitly to observe failures). Throws
  /// std::runtime_error on I/O failure.
  void Finish();

 private:
  void FlushChunk();

  std::string path_;
  uint64_t chunk_invocations_ = 0;
  uint64_t appended_ = 0;
  bool finished_ = false;
  std::vector<KernelInvocation> buffer_;
  std::vector<ChunkInfo> chunks_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Random-access reader over an "SRTC" file. Opening validates the
/// header, trailer, and footer index (chunks back to back between header
/// and footer, counts consistent); chunk payload digests are verified on
/// each ReadChunk.
class ChunkedTraceReader {
 public:
  /// Throws std::runtime_error on any open/format defect.
  explicit ChunkedTraceReader(const std::string& path);
  ~ChunkedTraceReader();

  ChunkedTraceReader(const ChunkedTraceReader&) = delete;
  ChunkedTraceReader& operator=(const ChunkedTraceReader&) = delete;

  const std::string& Path() const { return path_; }
  /// Workload name + kernel-type table (zero invocations).
  const KernelTrace& Header() const { return header_; }
  uint64_t NumInvocations() const { return total_invocations_; }
  size_t NumChunks() const { return chunks_.size(); }
  uint64_t ChunkCapacity() const { return chunk_invocations_; }
  const ChunkInfo& Chunk(size_t i) const { return chunks_.at(i); }

  /// Read chunk i, verify its digest, and materialize the invocations
  /// (seq fields globally consistent). Throws std::runtime_error on a
  /// short read or digest mismatch.
  std::vector<KernelInvocation> ReadChunk(size_t i) const;

  /// Raw verified payload bytes of chunk i. Throws like ReadChunk.
  std::string ReadChunkPayload(size_t i) const;

  /// Digest-check chunk i without materializing invocations; false on
  /// any defect (never throws).
  bool VerifyChunk(size_t i) const;

 private:
  std::string path_;
  KernelTrace header_;
  uint64_t chunk_invocations_ = 0;
  uint64_t total_invocations_ = 0;
  std::vector<ChunkInfo> chunks_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---------------------------------------------------------------------------
// Chunk iterators
// ---------------------------------------------------------------------------

/// The chunk-iterator abstraction every streaming consumer is written
/// against. Chunk(i) materializes one chunk; implementations charge the
/// resident bytes to the "trace" resource category as a deterministic
/// per-worker peak (header + 2 chunk budgets -- current chunk plus one
/// in flight), never the whole-timeline total the in-memory path charges.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  /// Workload name + kernel-type table shared by every chunk.
  virtual const KernelTrace& Header() const = 0;
  virtual uint64_t NumInvocations() const = 0;
  virtual size_t NumChunks() const = 0;
  virtual uint64_t ChunkCapacity() const = 0;
  /// Materialize chunk i with globally consistent seq fields. Throws
  /// std::runtime_error on storage defects.
  virtual std::vector<KernelInvocation> Chunk(size_t i) const = 0;

  /// Deterministic logical bytes resident while one worker streams: the
  /// shared header plus two chunk budgets. This is the number charged to
  /// resource::AccountPeak("trace", ...) by streaming consumers.
  uint64_t ResidentBudgetBytes() const;
};

/// Slices an in-memory trace into chunks (the zero-copy degenerate case;
/// chunks are copied out only when materialized).
class InMemoryChunkSource : public ChunkSource {
 public:
  /// `trace` must outlive the source.
  InMemoryChunkSource(const KernelTrace& trace, uint64_t chunk_invocations);

  const KernelTrace& Header() const override { return header_; }
  uint64_t NumInvocations() const override;
  size_t NumChunks() const override;
  uint64_t ChunkCapacity() const override { return chunk_invocations_; }
  std::vector<KernelInvocation> Chunk(size_t i) const override;

 private:
  const KernelTrace& trace_;
  KernelTrace header_;
  uint64_t chunk_invocations_ = 0;
};

/// Streams chunks out of an "SRTC" file.
class FileChunkSource : public ChunkSource {
 public:
  /// Throws std::runtime_error on any open/format defect.
  explicit FileChunkSource(const std::string& path);

  const KernelTrace& Header() const override { return reader_.Header(); }
  uint64_t NumInvocations() const override {
    return reader_.NumInvocations();
  }
  size_t NumChunks() const override { return reader_.NumChunks(); }
  uint64_t ChunkCapacity() const override { return reader_.ChunkCapacity(); }
  std::vector<KernelInvocation> Chunk(size_t i) const override;

  const ChunkedTraceReader& Reader() const { return reader_; }

 private:
  ChunkedTraceReader reader_;
};

/// Tiles a small profiled base trace out to `total_invocations` logical
/// invocations: global invocation j is base.At(j % base.NumInvocations())
/// with seq rewritten to j. Deterministic, never materialized, and the
/// base trace is the only resident state besides the chunk being built --
/// this is how the 10^8..10^9-invocation synthetic suites stream.
class ReplicatedChunkSource : public ChunkSource {
 public:
  /// `base` must be non-empty and outlive the source.
  ReplicatedChunkSource(const KernelTrace& base, uint64_t total_invocations,
                        uint64_t chunk_invocations);

  const KernelTrace& Header() const override { return header_; }
  uint64_t NumInvocations() const override { return total_invocations_; }
  size_t NumChunks() const override;
  uint64_t ChunkCapacity() const override { return chunk_invocations_; }
  std::vector<KernelInvocation> Chunk(size_t i) const override;

 private:
  const KernelTrace& base_;
  KernelTrace header_;
  uint64_t total_invocations_ = 0;
  uint64_t chunk_invocations_ = 0;
};

// ---------------------------------------------------------------------------
// Whole-trace helpers
// ---------------------------------------------------------------------------

/// Write an in-memory trace as a chunked file. Returns chunks written.
/// The file is written beside `path` and renamed into place, so a reader
/// of `path` sees the previous file or the complete new one, never a
/// torn one, even while another thread spills the same path.
size_t SpillTraceChunked(const KernelTrace& trace, const std::string& path,
                         uint64_t chunk_invocations = kDefaultChunkInvocations);

/// Reassemble a full in-memory trace from any chunk source (CLI trace
/// files, tests and small traces -- this is exactly the materialization
/// streaming avoids). Throws on storage defects.
KernelTrace AssembleTrace(const ChunkSource& source);

}  // namespace stemroot
