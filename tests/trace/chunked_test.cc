#include "trace/chunked.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "srtc_v1.h"
#include "workloads/rodinia.h"

// Largest single allocation requested while the test arms the tracker, so
// a decoder test can prove no allocation was sized from a corrupt count.
// The replacements stay out of line: inlined, GCC pairs the caller's
// `new` with the `free` inside and warns (-Wmismatched-new-delete).
namespace {
std::atomic<bool> g_track_allocations{false};
std::atomic<size_t> g_largest_allocation{0};
}  // namespace

[[gnu::noinline]] void* operator new(size_t n) {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (n > seen && !g_largest_allocation.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace stemroot {
namespace {

/// Bytes one invocation's columnar record occupies in a chunk payload.
constexpr uint64_t kRowBytes = 96;

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string WriteBytes(const char* name, const std::string& bytes) {
  const std::string path = TempPath(name);
  std::ofstream(path, std::ios::binary) << bytes;
  return path;
}

/// Profiled deterministic trace: durations derived from seq so every
/// field of the columnar payload carries distinguishable data.
KernelTrace MakeTrace(size_t min_invocations = 0) {
  KernelTrace trace = workloads::MakeRodinia("gaussian", 42, 0.05);
  EXPECT_GE(trace.NumInvocations(), min_invocations);
  for (auto& inv : trace.MutableInvocations())
    inv.duration_us = static_cast<double>(inv.seq + 1) * 0.25;
  return trace;
}

void ExpectInvocationEq(const KernelInvocation& a, const KernelInvocation& b) {
  EXPECT_EQ(a.kernel_id, b.kernel_id);
  EXPECT_EQ(a.context_id, b.context_id);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.launch, b.launch);
  EXPECT_EQ(a.behavior.instructions, b.behavior.instructions);
  EXPECT_EQ(a.behavior.footprint_bytes, b.behavior.footprint_bytes);
  EXPECT_EQ(a.behavior.mem_fraction, b.behavior.mem_fraction);
  EXPECT_EQ(a.behavior.shared_fraction, b.behavior.shared_fraction);
  EXPECT_EQ(a.behavior.locality, b.behavior.locality);
  EXPECT_EQ(a.behavior.coalescing, b.behavior.coalescing);
  EXPECT_EQ(a.behavior.branch_divergence, b.behavior.branch_divergence);
  EXPECT_EQ(a.behavior.fp16_fraction, b.behavior.fp16_fraction);
  EXPECT_EQ(a.behavior.fp32_fraction, b.behavior.fp32_fraction);
  EXPECT_EQ(a.behavior.ilp, b.behavior.ilp);
  EXPECT_EQ(a.behavior.input_scale, b.behavior.input_scale);
  EXPECT_EQ(a.behavior.store_fraction, b.behavior.store_fraction);
  EXPECT_EQ(a.duration_us, b.duration_us);
}

void ExpectTraceEq(const KernelTrace& a, const KernelTrace& b) {
  EXPECT_EQ(a.WorkloadName(), b.WorkloadName());
  ASSERT_EQ(a.NumKernelTypes(), b.NumKernelTypes());
  for (uint32_t k = 0; k < a.NumKernelTypes(); ++k) {
    EXPECT_EQ(a.Type(k).name, b.Type(k).name);
    EXPECT_EQ(a.Type(k).num_basic_blocks, b.Type(k).num_basic_blocks);
    EXPECT_EQ(a.Type(k).block_weights, b.Type(k).block_weights);
  }
  ASSERT_EQ(a.NumInvocations(), b.NumInvocations());
  for (size_t i = 0; i < a.NumInvocations(); ++i)
    ExpectInvocationEq(a.At(i), b.At(i));
}

// ---------------------------------------------------------------------------
// Chunk payload encode/decode

TEST(ChunkPayloadTest, RoundTripPreservesEveryColumn) {
  const KernelTrace trace = MakeTrace(3);
  const auto invocations = InMemoryChunkSource(trace, 64).Chunk(0);
  const std::string payload = EncodeChunk(invocations);
  EXPECT_EQ(payload.size(), 8 + invocations.size() * kRowBytes);
  const std::vector<KernelInvocation> decoded = DecodeChunk(payload, 0);
  ASSERT_EQ(decoded.size(), invocations.size());
  for (size_t i = 0; i < decoded.size(); ++i)
    ExpectInvocationEq(decoded[i], invocations[i]);
}

TEST(ChunkPayloadTest, EmptyChunkRoundTrips) {
  const std::string payload = EncodeChunk({});
  EXPECT_EQ(payload.size(), 8u);  // just the u64 count
  EXPECT_TRUE(DecodeChunk(payload, 0).empty());
}

TEST(ChunkPayloadTest, SingleInvocationRoundTripsWithSeqRebase) {
  KernelInvocation inv;
  inv.kernel_id = 3;
  inv.seq = 999;  // encoder drops seq; decoder rebuilds from first_seq
  inv.duration_us = 7.5;
  const std::string payload =
      EncodeChunk(std::span<const KernelInvocation>(&inv, 1));
  const auto decoded = DecodeChunk(payload, 12345);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].seq, 12345u);
  EXPECT_EQ(decoded[0].kernel_id, 3u);
  EXPECT_EQ(decoded[0].duration_us, 7.5);
}

TEST(ChunkPayloadTest, HugeCountPrefixThrowsWithoutAllocating) {
  // A hostile count prefix far beyond the payload bytes must throw
  // std::runtime_error from the bounds check, never reach a
  // count-driven allocation.
  std::string payload = EncodeChunk({});
  payload.resize(8);
  const uint64_t huge = ~uint64_t{0} / 2;
  payload.replace(0, 8, reinterpret_cast<const char*>(&huge), 8);
  EXPECT_THROW(DecodeChunk(payload, 0), std::runtime_error);
}

TEST(ChunkPayloadTest, TruncatedAndOversizedPayloadsThrow) {
  const KernelTrace trace = MakeTrace(2);
  const auto invocations = InMemoryChunkSource(trace, 8).Chunk(0);
  const std::string payload = EncodeChunk(invocations);
  EXPECT_THROW(DecodeChunk(std::string_view(payload).substr(0, 4), 0),
               std::runtime_error);
  EXPECT_THROW(
      DecodeChunk(std::string_view(payload).substr(0, payload.size() - 1), 0),
      std::runtime_error);
  EXPECT_THROW(DecodeChunk(payload + "x", 0), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Writer + reader round trips

TEST(ChunkedFileTest, RoundTripWithPartialLastChunk) {
  const KernelTrace trace = MakeTrace(5);
  const std::string path = TempPath("partial_last.srtc");
  // A capacity that does not divide the trace: the last chunk is partial.
  const uint64_t cap = trace.NumInvocations() / 2 + 1;
  ASSERT_NE(trace.NumInvocations() % cap, 0u);
  EXPECT_EQ(SpillTraceChunked(trace, path, cap), 2u);

  const ChunkedTraceReader reader(path);
  EXPECT_EQ(reader.ChunkCapacity(), cap);
  EXPECT_EQ(reader.NumInvocations(), trace.NumInvocations());
  ASSERT_EQ(reader.NumChunks(), 2u);
  EXPECT_EQ(reader.Chunk(0).count, cap);
  EXPECT_EQ(reader.Chunk(1).count, trace.NumInvocations() - cap);
  for (size_t i = 0; i < reader.NumChunks(); ++i)
    EXPECT_TRUE(reader.VerifyChunk(i));
  ExpectTraceEq(AssembleTrace(FileChunkSource(path)), trace);
}

TEST(ChunkedFileTest, SingleInvocationFileRoundTrips) {
  KernelTrace trace("one");
  const uint32_t k = trace.InternKernel("solo");
  KernelInvocation inv;
  inv.kernel_id = k;
  inv.duration_us = 3.0;
  trace.Add(inv);
  const std::string path = TempPath("single.srtc");
  EXPECT_EQ(SpillTraceChunked(trace, path, 4), 1u);
  const ChunkedTraceReader reader(path);
  ASSERT_EQ(reader.NumChunks(), 1u);
  EXPECT_EQ(reader.Chunk(0).count, 1u);
  ExpectTraceEq(AssembleTrace(FileChunkSource(path)), trace);
}

TEST(ChunkedFileTest, EmptyTraceRoundTripsWithZeroChunks) {
  KernelTrace trace("empty");
  trace.InternKernel("unused");
  const std::string path = TempPath("empty.srtc");
  EXPECT_EQ(SpillTraceChunked(trace, path, 16), 0u);
  const ChunkedTraceReader reader(path);
  EXPECT_EQ(reader.NumChunks(), 0u);
  EXPECT_EQ(reader.NumInvocations(), 0u);
  EXPECT_EQ(reader.Header().WorkloadName(), "empty");
  EXPECT_EQ(reader.Header().NumKernelTypes(), 1u);
  EXPECT_EQ(AssembleTrace(FileChunkSource(path)).NumInvocations(), 0u);
}

TEST(ChunkedFileTest, ExactMultipleCapacityHasNoPartialChunk) {
  KernelTrace trace("exact");
  const uint32_t k = trace.InternKernel("k");
  for (int i = 0; i < 8; ++i) {
    KernelInvocation inv;
    inv.kernel_id = k;
    inv.duration_us = 1.0 + i;
    trace.Add(inv);
  }
  const std::string path = TempPath("exact.srtc");
  EXPECT_EQ(SpillTraceChunked(trace, path, 4), 2u);
  const ChunkedTraceReader reader(path);
  EXPECT_EQ(reader.Chunk(0).count, 4u);
  EXPECT_EQ(reader.Chunk(1).count, 4u);
  ExpectTraceEq(AssembleTrace(FileChunkSource(path)), trace);
}

TEST(ChunkedFileTest, ReadChunkRebuildsGlobalSeq) {
  const KernelTrace trace = MakeTrace(5);
  const std::string path = TempPath("seq.srtc");
  const uint64_t cap = 3;
  SpillTraceChunked(trace, path, cap);
  const ChunkedTraceReader reader(path);
  for (size_t i = 0; i < reader.NumChunks(); ++i) {
    const auto chunk = reader.ReadChunk(i);
    for (size_t j = 0; j < chunk.size(); ++j)
      EXPECT_EQ(chunk[j].seq, i * cap + j);
  }
}

TEST(ChunkedFileTest, WriterBatchAndSingleAppendsAgree) {
  const KernelTrace trace = MakeTrace(4);
  const std::string batch_path = TempPath("batch.srtc");
  const std::string single_path = TempPath("single_append.srtc");
  SpillTraceChunked(trace, batch_path, 7);  // batch Append under the hood
  {
    ChunkedTraceWriter writer(single_path, trace, 7);
    for (size_t i = 0; i < trace.NumInvocations(); ++i)
      writer.Append(trace.At(i));
    writer.Finish();
  }
  EXPECT_EQ(ReadBytes(batch_path), ReadBytes(single_path));
}

// ---------------------------------------------------------------------------
// Corruption: throw on read, false on verify, reject on open

TEST(ChunkedFileTest, CorruptChunkDigestIsDetectedPerChunk) {
  const KernelTrace trace = MakeTrace(5);
  const std::string path = TempPath("corrupt_chunk.srtc");
  SpillTraceChunked(trace, path, trace.NumInvocations() / 2 + 1);
  ChunkInfo second;
  {
    const ChunkedTraceReader reader(path);
    ASSERT_EQ(reader.NumChunks(), 2u);
    second = reader.Chunk(1);
  }
  {
    // Flip one byte inside chunk 1's payload; chunk 0 stays intact.
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(second.offset + 8));
    char byte = 0;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(second.offset + 8));
    file.put(static_cast<char>(byte ^ 0x5a));
  }
  const ChunkedTraceReader reader(path);  // footer still consistent
  EXPECT_TRUE(reader.VerifyChunk(0));
  EXPECT_FALSE(reader.VerifyChunk(1));
  EXPECT_NO_THROW(reader.ReadChunk(0));
  EXPECT_THROW(reader.ReadChunk(1), std::runtime_error);
  EXPECT_THROW(AssembleTrace(FileChunkSource(path)), std::runtime_error);
}

TEST(ChunkedFileTest, TruncatedFileIsRejectedAtOpen) {
  const KernelTrace trace = MakeTrace(2);
  const std::string full = TempPath("trunc_full.srtc");
  SpillTraceChunked(trace, full, 8);
  const std::string bytes = ReadBytes(full);
  // Chop at several depths: inside the trailer, inside the footer, and
  // down to a stub shorter than any trailer. All must throw at open.
  for (const size_t keep :
       {bytes.size() - 1, bytes.size() - 40, bytes.size() / 2, size_t{10}}) {
    const std::string cut = TempPath("trunc_cut.srtc");
    std::ofstream(cut, std::ios::binary) << bytes.substr(0, keep);
    EXPECT_THROW(ChunkedTraceReader{cut}, std::runtime_error)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST(ChunkedFileTest, MissingFileAndGarbageAreRejected) {
  EXPECT_THROW(ChunkedTraceReader{"/nonexistent/x.srtc"},
               std::runtime_error);
  const std::string path = TempPath("garbage.srtc");
  std::ofstream(path, std::ios::binary)
      << std::string(4096, '\x5a');  // big enough to hold a fake trailer
  EXPECT_THROW(ChunkedTraceReader{path}, std::runtime_error);
}

TEST(ChunkedFileTest, UnfinishedWriterLeavesRejectedFile) {
  const KernelTrace trace = MakeTrace(2);
  const std::string path = TempPath("unfinished.srtc");
  {
    ChunkedTraceWriter writer(path, trace, 4);
    writer.Append(trace.At(0));
    // No Finish(): destructor finishes best-effort -- emulate a crash by
    // writing a second, footerless file instead.
  }
  const std::string crashed = TempPath("crashed.srtc");
  {
    const std::string bytes = ReadBytes(path);
    ASSERT_GT(bytes.size(), 32u);
    std::ofstream(crashed, std::ios::binary)
        << bytes.substr(0, bytes.size() - 32);  // strip the trailer
  }
  EXPECT_THROW(ChunkedTraceReader{crashed}, std::runtime_error);
}

// ---------------------------------------------------------------------------
// Whole-trace encoding (EncodeTrace/DecodeTrace) and hostile input. Every
// length/count prefix is bounds-checked against the bytes actually
// remaining, so a corrupt or truncated prefix throws std::runtime_error
// *before* any allocation is sized from it. The header cases also run
// through a file, whose reader rejects them by the header digest.

/// Overwrite a little-endian POD at `offset` in encoded bytes.
template <typename T>
std::string CorruptAt(std::string bytes, size_t offset, T value) {
  EXPECT_LE(offset + sizeof(T), bytes.size());
  bytes.replace(offset, sizeof(T), reinterpret_cast<const char*>(&value),
                sizeof(T));
  return bytes;
}

/// A tiny trace with deterministic prefix offsets: workload "wl" (2
/// bytes), one interned kernel type, `n` invocations.
KernelTrace TinyTrace(int n) {
  KernelTrace trace("wl");
  const uint32_t k = trace.InternKernel("k");
  for (int i = 0; i < n; ++i) {
    KernelInvocation inv;
    inv.kernel_id = k;
    inv.duration_us = 1.0 + i;
    trace.Add(inv);
  }
  return trace;
}

// Prefix offsets in TinyTrace headers: magic(4) version(4) capacity(8),
// then the workload-name length at 16, num_types at 16 + 4 + 2, the first
// type-name length at 26, and (after name "k" and num_basic_blocks) the
// block-weight count at 26 + 4 + 1 + 4 = 35.
constexpr size_t kWorkloadLenOffset = 16;
constexpr size_t kNumTypesOffset = 22;
constexpr size_t kTypeNameLenOffset = 26;
constexpr size_t kWeightCountOffset = 35;

/// Expect both DecodeTrace and the file reader to reject a header with
/// `value` written at `offset`.
template <typename T>
void ExpectHeaderRejected(size_t offset, T value) {
  EXPECT_THROW(DecodeTrace(CorruptAt(EncodeTrace(TinyTrace(2)), offset, value)),
               std::runtime_error)
      << "in memory, offset " << offset;
  // Per-case file names: ctest runs the cases as concurrent processes.
  const std::string name = "header_" + std::to_string(offset) + "_" +
                           std::to_string(value) + ".srtc";
  const std::string good = TempPath(("good_" + name).c_str());
  SpillTraceChunked(TinyTrace(2), good, 8);
  const std::string bad = WriteBytes(("bad_" + name).c_str(),
                                     CorruptAt(ReadBytes(good), offset, value));
  EXPECT_THROW(ChunkedTraceReader{bad}, std::runtime_error)
      << "in a file, offset " << offset;
}

TEST(ChunkedFileTest, ChunksMustTileHeaderToFooter) {
  const KernelTrace trace = MakeTrace(5);
  const std::string path = TempPath("tiling.srtc");
  SpillTraceChunked(trace, path, trace.NumInvocations() / 2 + 1);
  const std::string bytes = ReadBytes(path);
  ChunkInfo first, second;
  {
    const ChunkedTraceReader reader(path);
    ASSERT_EQ(reader.NumChunks(), 2u);
    first = reader.Chunk(0);
    second = reader.Chunk(1);
  }
  // The footer (one 24-byte record per chunk) follows the last chunk.
  const size_t footer = second.offset + 8 + second.count * kRowBytes;
  // Chunk 1 moved back by one row into chunk 0: still inside the file, so
  // only the tiling check can reject it before a chunk is read.
  EXPECT_THROW(ChunkedTraceReader{WriteBytes(
                   "tiling_bad.srtc",
                   CorruptAt<uint64_t>(bytes, footer + 24,
                                       second.offset -
                                           kRowBytes))},
               std::runtime_error);
  // Chunk 0 moved into the header.
  EXPECT_THROW(ChunkedTraceReader{WriteBytes(
                   "tiling_bad.srtc",
                   CorruptAt<uint64_t>(bytes, footer, first.offset - 4))},
               std::runtime_error);
}

/// Open `path` and read every chunk; the way a stream consumes a file.
void OpenAndReadAll(const std::string& path) {
  const ChunkedTraceReader reader(path);
  for (size_t i = 0; i < reader.NumChunks(); ++i) (void)reader.ReadChunk(i);
}

TEST(ChunkedFileTest, EveryMutationThrowsWithoutLargeAllocations) {
  // A bounded slice of a decoder fuzzer over a two-chunk file: every
  // mutation must throw std::runtime_error at open or chunk read, and no
  // allocation on the way may be sized from a corrupt count.
  const std::string good = TempPath("mutation_good.srtc");
  SpillTraceChunked(TinyTrace(3), good, 2);
  const std::string file = ReadBytes(good);
  ASSERT_EQ(ChunkedTraceReader(good).NumChunks(), 2u);
  // Control: the tracker sees the intact file's reads.
  g_largest_allocation = 0;
  g_track_allocations = true;
  ASSERT_NO_THROW(OpenAndReadAll(good));
  g_track_allocations = false;
  ASSERT_GT(g_largest_allocation.load(), 0u);
  Rng rng(20250418);

  const std::string path = TempPath("mutation_bad.srtc");
  size_t cases = 0;
  auto expect_rejected = [&](const std::string& bytes,
                             const std::string& what) {
    ++cases;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    g_largest_allocation = 0;
    g_track_allocations = true;
    EXPECT_THROW(OpenAndReadAll(path), std::runtime_error) << what;
    g_track_allocations = false;
    // The file is under 1 KB; the reader's own stream buffer is the
    // largest legitimate allocation.
    EXPECT_LE(g_largest_allocation.load(), size_t{64} << 10) << what;
  };

  for (size_t bit = 0; bit < file.size() * 8; ++bit) {
    std::string bytes = file;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    expect_rejected(bytes, "bit " + std::to_string(bit) + " flipped");
  }
  for (size_t len = 0; len < file.size(); ++len)
    expect_rejected(file.substr(0, len),
                    "truncated to " + std::to_string(len));

  // Inflate every count and length prefix: the header's, each chunk
  // payload's, the footer's and the trailer's.
  const size_t trailer = file.size() - 40;
  const auto footer = testing_srtc::ReadPodAt<uint64_t>(file, trailer);
  const auto chunk1 = testing_srtc::ReadPodAt<uint64_t>(file, footer + 24);
  const auto chunk0 = testing_srtc::ReadPodAt<uint64_t>(file, footer);
  // Every value exceeds each prefix's true value in its low 32 bits too.
  std::vector<uint64_t> inflated = {4, 1000, 0xFFFFFFFFu,
                                    (uint64_t{1} << 40) + 5,
                                    std::numeric_limits<uint64_t>::max()};
  for (int i = 0; i < 8; ++i) inflated.push_back(rng() | 0x10000u);
  for (const uint64_t value : inflated) {
    const std::string v = std::to_string(value);
    const auto u32 = static_cast<uint32_t>(value);
    expect_rejected(CorruptAt(file, kWorkloadLenOffset, u32), "name len " + v);
    expect_rejected(CorruptAt(file, kNumTypesOffset, u32), "types " + v);
    expect_rejected(CorruptAt(file, kTypeNameLenOffset, u32), "type len " + v);
    expect_rejected(CorruptAt(file, kWeightCountOffset, u32), "weights " + v);
    expect_rejected(CorruptAt(file, chunk0, value), "chunk 0 count " + v);
    expect_rejected(CorruptAt(file, chunk1, value), "chunk 1 count " + v);
    expect_rejected(CorruptAt(file, footer + 8, value), "footer 0 " + v);
    expect_rejected(CorruptAt(file, footer + 32, value), "footer 1 " + v);
    expect_rejected(CorruptAt(file, trailer + 8, value), "chunks " + v);
    expect_rejected(CorruptAt(file, trailer + 16, value), "total " + v);
  }

  // Random overwrites of 1-8 bytes anywhere in the file.
  for (int i = 0; i < 256; ++i) {
    std::string bytes = file;
    const size_t at = rng.NextBounded(bytes.size());
    const size_t n =
        std::min<size_t>(1 + rng.NextBounded(8), bytes.size() - at);
    for (size_t j = 0; j < n; ++j) bytes[at + j] = static_cast<char>(rng());
    if (bytes == file) continue;
    expect_rejected(bytes, "overwrite at " + std::to_string(at));
  }
  EXPECT_GT(cases, file.size() * 9);
}

/// The `what()` of the exception `fn` throws ("" when it does not throw).
template <typename Fn>
std::string ErrorOf(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ChunkedFileTest, VersionOneFileIsRejectedAtOpenByName) {
  const std::string v2 = TempPath("v2.srtc");
  SpillTraceChunked(TinyTrace(3), v2, 2);
  const std::string v1 =
      WriteBytes("v1.srtc", testing_srtc::ToVersionOneFile(ReadBytes(v2)));
  const std::string error = ErrorOf([&] { ChunkedTraceReader reader(v1); });
  EXPECT_NE(error.find("unsupported format version 1 (this build reads 2)"),
            std::string::npos)
      << error;
}

TEST(SerializeTest, VersionOneHeaderIsRejectedByName) {
  // The in-memory container has no trailer: its header version is the
  // one check.
  std::string bytes = EncodeTrace(TinyTrace(2));
  bytes = CorruptAt<uint32_t>(bytes, 4, 1);
  const std::string error = ErrorOf([&] { DecodeTrace(bytes); });
  EXPECT_NE(error.find("unsupported format version 1 (this build reads 2)"),
            std::string::npos)
      << error;
}

TEST(SerializeTest, BinaryRoundTripPreservesEverything) {
  const KernelTrace original = MakeTrace(3);
  const std::string bytes = EncodeTrace(original);
  ExpectTraceEq(DecodeTrace(bytes), original);
  // Canonical: re-encoding the decoded trace yields the same bytes.
  EXPECT_EQ(EncodeTrace(DecodeTrace(bytes)), bytes);

  const std::string path = TempPath("trace_roundtrip.srtc");
  SpillTraceChunked(original, path);
  ExpectTraceEq(AssembleTrace(FileChunkSource(path)), original);
}

TEST(SerializeTest, EmptyTraceRoundTrips) {
  KernelTrace trace("empty");
  trace.InternKernel("unused");
  const KernelTrace decoded = DecodeTrace(EncodeTrace(trace));
  EXPECT_EQ(decoded.NumInvocations(), 0u);
  ExpectTraceEq(decoded, trace);
}

TEST(SerializeTest, LoadRejectsMissingFile) {
  EXPECT_THROW(AssembleTrace(FileChunkSource("/nonexistent/trace.srtc")),
               std::runtime_error);
}

TEST(SerializeTest, LoadRejectsBadMagic) {
  EXPECT_THROW(DecodeTrace("NOPE this is not a trace"), std::runtime_error);
  EXPECT_THROW(
      FileChunkSource{WriteBytes("bad_magic.srtc", "NOPE this is not a trace")},
      std::runtime_error);
  // A well-formed file whose leading magic alone is wrong.
  const std::string path = TempPath("bad_magic_full.srtc");
  SpillTraceChunked(TinyTrace(2), path, 8);
  std::string bytes = ReadBytes(path);
  bytes[0] = 'X';
  EXPECT_THROW(FileChunkSource{WriteBytes("bad_magic_full.srtc", bytes)},
               std::runtime_error);
}

TEST(SerializeTest, LoadRejectsTruncatedFile) {
  const std::string path = TempPath("full.srtc");
  SpillTraceChunked(MakeTrace(2), path);
  const std::string bytes = ReadBytes(path);
  EXPECT_THROW(AssembleTrace(FileChunkSource(
                   WriteBytes("cut.srtc", bytes.substr(0, bytes.size() / 2)))),
               std::runtime_error);
}

TEST(SerializeTest, CorruptWorkloadNameLengthThrows) {
  ExpectHeaderRejected<uint32_t>(kWorkloadLenOffset, 0xffffffffu);
  // Plausible but past the end of the header.
  ExpectHeaderRejected<uint32_t>(kWorkloadLenOffset, 4096);
}

TEST(SerializeTest, CorruptKernelTypeCountThrows) {
  ExpectHeaderRejected<uint32_t>(kNumTypesOffset, 0xffffffu);
}

TEST(SerializeTest, CorruptTypeNameLengthThrows) {
  ExpectHeaderRejected<uint32_t>(kTypeNameLenOffset, 0xffffffffu);
  ExpectHeaderRejected<uint32_t>(kTypeNameLenOffset, 4096);
}

TEST(SerializeTest, CorruptBlockWeightCountThrows) {
  ExpectHeaderRejected<uint32_t>(kWeightCountOffset, 0xffffffffu);
  ExpectHeaderRejected<uint32_t>(kWeightCountOffset, 4096);
}

TEST(SerializeTest, CorruptInvocationCountThrows) {
  // The chunk's u64 count follows the header; derive its offset from an
  // empty-timeline encoding so the test never hardcodes header sizes.
  const size_t count_offset = EncodeTrace(TinyTrace(0)).size() - 8;
  const std::string bytes = EncodeTrace(TinyTrace(3));
  // Claiming more rows than the payload holds must throw from the bounds
  // check, never reach a count-sized allocation.
  EXPECT_THROW(DecodeTrace(CorruptAt<uint64_t>(bytes, count_offset,
                                               uint64_t{1} << 60)),
               std::runtime_error);
  EXPECT_THROW(DecodeTrace(CorruptAt<uint64_t>(bytes, count_offset, 4)),
               std::runtime_error);
  // Undercounting leaves trailing bytes: a payload must be exactly one
  // trace.
  EXPECT_THROW(DecodeTrace(CorruptAt<uint64_t>(bytes, count_offset, 2)),
               std::runtime_error);
}

TEST(SerializeTest, TrailingBytesThrow) {
  EXPECT_THROW(DecodeTrace(EncodeTrace(TinyTrace(2)) + "x"),
               std::runtime_error);
}

TEST(SerializeTest, OutOfRangeKernelIdThrows) {
  // The first kernel_id cell sits right after the chunk's u64 count.
  const size_t first_id = EncodeTrace(TinyTrace(0)).size();
  EXPECT_THROW(DecodeTrace(CorruptAt<uint32_t>(EncodeTrace(TinyTrace(2)),
                                               first_id, 7)),
               std::runtime_error);
}

TEST(SerializeTest, DuplicateKernelTypeNameThrows) {
  KernelTrace trace("dup");
  trace.InternKernel("type_one");
  trace.InternKernel("type_two");
  std::string bytes = EncodeTrace(trace);
  // Rename the second type to the first: the type table would silently
  // shrink to one entry.
  bytes.replace(bytes.find("type_two"), 8, "type_one");
  EXPECT_THROW(DecodeTrace(bytes), std::runtime_error);
}

TEST(SerializeTest, TruncationAtEveryByteThrowsNotCrashes) {
  const std::string bytes = EncodeTrace(TinyTrace(2));
  for (size_t keep = 0; keep < bytes.size(); ++keep)
    EXPECT_THROW(DecodeTrace(bytes.substr(0, keep)), std::runtime_error)
        << "kept " << keep << " of " << bytes.size() << " bytes";
}

// ---------------------------------------------------------------------------
// Chunk sources

TEST(ChunkSourceTest, InMemoryAndFileChunksAreByteIdentical) {
  const KernelTrace trace = MakeTrace(5);
  const std::string path = TempPath("byte_identical.srtc");
  const uint64_t cap = trace.NumInvocations() / 3 + 1;
  SpillTraceChunked(trace, path, cap);
  const InMemoryChunkSource mem(trace, cap);
  const FileChunkSource file(path);
  ASSERT_EQ(mem.NumChunks(), file.NumChunks());
  for (size_t i = 0; i < mem.NumChunks(); ++i) {
    EXPECT_EQ(EncodeChunk(mem.Chunk(i)), file.Reader().ReadChunkPayload(i));
  }
  ExpectTraceEq(AssembleTrace(mem), AssembleTrace(file));
}

TEST(ChunkSourceTest, ReplicatedTilesBaseTraceDeterministically) {
  const KernelTrace base = MakeTrace(3);
  const uint64_t n = base.NumInvocations();
  const uint64_t total = 2 * n + 3;  // partial final tile
  const ReplicatedChunkSource source(base, total, n);
  EXPECT_EQ(source.NumInvocations(), total);
  EXPECT_EQ(source.NumChunks(), 3u);
  uint64_t seen = 0;
  for (size_t i = 0; i < source.NumChunks(); ++i) {
    const auto chunk = source.Chunk(i);
    for (const KernelInvocation& inv : chunk) {
      EXPECT_EQ(inv.seq, seen);
      KernelInvocation expected = base.At(seen % n);
      expected.seq = seen;
      ExpectInvocationEq(inv, expected);
      ++seen;
    }
    // Determinism: re-materializing yields byte-identical chunks.
    EXPECT_EQ(EncodeChunk(chunk), EncodeChunk(source.Chunk(i)));
  }
  EXPECT_EQ(seen, total);
}

TEST(ChunkSourceTest, ResidentBudgetIsIndependentOfLogicalSize) {
  const KernelTrace base = MakeTrace(1);
  const ReplicatedChunkSource small(base, 1000, 256);
  const ReplicatedChunkSource huge(base, 1000000000ull, 256);
  EXPECT_GT(small.ResidentBudgetBytes(), 0u);
  // The streaming memory contract: the budget scales with the chunk
  // capacity and header, never with the logical invocation count.
  EXPECT_EQ(small.ResidentBudgetBytes(), huge.ResidentBudgetBytes());
  const ReplicatedChunkSource wider(base, 1000, 512);
  EXPECT_GT(wider.ResidentBudgetBytes(), small.ResidentBudgetBytes());
}

TEST(ChunkSourceTest, InMemorySourceCoversWholeTraceOnce) {
  const KernelTrace trace = MakeTrace(4);
  const InMemoryChunkSource source(trace, 3);
  uint64_t seen = 0;
  for (size_t i = 0; i < source.NumChunks(); ++i) {
    for (const KernelInvocation& inv : source.Chunk(i)) {
      ExpectInvocationEq(inv, trace.At(seen));
      ++seen;
    }
  }
  EXPECT_EQ(seen, trace.NumInvocations());
}

}  // namespace
}  // namespace stemroot
