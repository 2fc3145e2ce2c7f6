#include "trace/chunked.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/cache.h"

namespace stemroot {

// One byte-order contract for every SRTC container: headers, chunk
// payloads and index records are raw little-endian object bytes.
static_assert(std::endian::native == std::endian::little,
              "SRTC trace format assumes a little-endian host; port "
              "trace/chunked.cc with explicit byte swapping before "
              "building for big-endian targets");

namespace {

constexpr char kMagic[4] = {'S', 'R', 'T', 'C'};
constexpr char kTrailerMagic[4] = {'S', 'R', 'T', 'F'};
constexpr uint32_t kVersion = 2;

/// Fixed trailer at the very end of the file: u64 footer_offset,
/// u64 num_chunks, u64 total_invocations, u64 header_digest, u32 version,
/// magic. Version and magic end the file in every version, so a reader
/// names an old version instead of misparsing its trailer.
constexpr uint64_t kTrailerBytes = 4 * sizeof(uint64_t) + sizeof(uint32_t) +
                                   sizeof(kTrailerMagic);
constexpr uint64_t kFooterRecordBytes = 3 * sizeof(uint64_t);

/// Minimum bytes of one kernel-type record: empty name (u32 length),
/// num_basic_blocks, and an empty weight table (u32 count).
constexpr uint64_t kTypeMinWireBytes = 3 * sizeof(uint32_t);

/// Visit the fields of one invocation in wire-column order: 8 u32 columns
/// (ids + launch geometry), 2 u64 columns, 10 f32 behaviour columns, and
/// the f64 duration column. The encoder and the decoder both walk this one
/// list, so the two directions cannot drift apart.
template <typename Invocation, typename Fn>
constexpr void ForEachColumn(Invocation& inv, Fn&& fn) {
  fn(inv.kernel_id);
  fn(inv.context_id);
  fn(inv.launch.grid_x);
  fn(inv.launch.grid_y);
  fn(inv.launch.grid_z);
  fn(inv.launch.block_x);
  fn(inv.launch.block_y);
  fn(inv.launch.block_z);
  fn(inv.behavior.instructions);
  fn(inv.behavior.footprint_bytes);
  fn(inv.behavior.mem_fraction);
  fn(inv.behavior.shared_fraction);
  fn(inv.behavior.locality);
  fn(inv.behavior.coalescing);
  fn(inv.behavior.branch_divergence);
  fn(inv.behavior.fp16_fraction);
  fn(inv.behavior.fp32_fraction);
  fn(inv.behavior.ilp);
  fn(inv.behavior.input_scale);
  fn(inv.behavior.store_fraction);
  fn(inv.duration_us);
}

constexpr uint64_t RowWireBytes() {
  KernelInvocation inv;
  uint64_t bytes = 0;
  ForEachColumn(inv, [&bytes](const auto& field) { bytes += sizeof(field); });
  return bytes;
}

/// One invocation's footprint in a columnar chunk payload.
constexpr uint64_t kColumnarBytesPerInvocation = RowWireBytes();
static_assert(kColumnarBytesPerInvocation == 96,
              "changing the column list changes the SRTC wire format");

template <typename T>
void AppendPod(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bounds-checked cursor over encoded bytes: the one decoder for headers,
/// chunk payloads, footers and trailers. Every length or count prefix is
/// checked against the bytes remaining before anything is sized from it,
/// so corrupt input throws std::runtime_error instead of over-allocating.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, std::string who)
      : bytes_(bytes), who_(std::move(who)) {}

  uint64_t Remaining() const { return bytes_.size() - pos_; }

  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error(who_ + ": " + what);
  }

  /// Throw unless `count` records of at least `width` bytes remain.
  void Require(uint64_t count, uint64_t width, const char* what) const {
    if (count > Remaining() / width)
      Fail(std::string(what) +
           " exceeds bytes remaining (corrupt or truncated input)");
  }

  const char* Take(uint64_t n, const char* what) {
    Require(n, 1, what);
    const char* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }

  template <typename T>
  T Read(const char* what) {
    T value;
    std::memcpy(&value, Take(sizeof(T), what), sizeof(T));
    return value;
  }

  std::string ReadString(const char* what) {
    const uint32_t len = Read<uint32_t>(what);
    return std::string(Take(len, what), len);
  }

  bool ReadMagic(const char (&magic)[4]) {
    return std::memcmp(Take(sizeof(magic), "magic"), magic, sizeof(magic)) ==
           0;
  }

 private:
  std::string_view bytes_;
  std::string who_;
  uint64_t pos_ = 0;
};

/// Throw unless `version` (read from a header or trailer) is kVersion.
void CheckVersion(const ByteReader& in, uint32_t version) {
  if (version != kVersion)
    in.Fail("unsupported format version " + std::to_string(version) +
            " (this build reads " + std::to_string(kVersion) + ")");
}

/// Serialize the header section (magic, version, chunk capacity, workload
/// name, kernel-type table) into a byte string.
std::string EncodeHeader(const KernelTrace& header,
                         uint64_t chunk_invocations) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendPod(out, kVersion);
  AppendPod(out, chunk_invocations);
  AppendPod(out, static_cast<uint32_t>(header.WorkloadName().size()));
  out.append(header.WorkloadName());
  AppendPod(out, static_cast<uint32_t>(header.NumKernelTypes()));
  for (const KernelType& type : header.Types()) {
    AppendPod(out, static_cast<uint32_t>(type.name.size()));
    out.append(type.name);
    AppendPod(out, type.num_basic_blocks);
    AppendPod(out, static_cast<uint32_t>(type.block_weights.size()));
    for (float w : type.block_weights) AppendPod(out, w);
  }
  return out;
}

/// Decode a header written by EncodeHeader into `header` (workload name
/// and kernel-type table); returns the chunk capacity.
uint64_t DecodeHeader(ByteReader& in, KernelTrace& header) {
  if (!in.ReadMagic(kMagic)) in.Fail("bad magic (not an SRTC trace)");
  CheckVersion(in, in.Read<uint32_t>("version"));
  const uint64_t chunk_invocations = in.Read<uint64_t>("chunk capacity");
  if (chunk_invocations == 0) in.Fail("corrupt chunk capacity");
  header.SetWorkloadName(in.ReadString("workload-name length"));
  const uint32_t num_types = in.Read<uint32_t>("kernel-type count");
  in.Require(num_types, kTypeMinWireBytes, "kernel-type count");
  for (uint32_t k = 0; k < num_types; ++k) {
    KernelType type;
    type.name = in.ReadString("kernel-type name length");
    type.num_basic_blocks = in.Read<uint32_t>("basic-block count");
    const uint32_t weights = in.Read<uint32_t>("block-weight count");
    in.Require(weights, sizeof(float), "block-weight count");
    type.block_weights.resize(weights);
    for (float& w : type.block_weights) w = in.Read<float>("block weight");
    if (header.AddKernelType(std::move(type)) != k)
      in.Fail("duplicate kernel-type name");
  }
  return chunk_invocations;
}

/// Append one self-delimiting columnar chunk payload to `out`.
void AppendChunk(std::string& out,
                 std::span<const KernelInvocation> invocations) {
  const uint64_t count = invocations.size();
  AppendPod(out, count);
  const size_t body = out.size();
  out.resize(body + count * kColumnarBytesPerInvocation);
  char* const columns = out.data() + body;
  for (uint64_t i = 0; i < count; ++i) {
    char* column = columns;
    ForEachColumn(invocations[i], [&](const auto& field) {
      std::memcpy(column + i * sizeof(field), &field, sizeof(field));
      column += count * sizeof(field);
    });
  }
}

/// Decode one chunk payload that must fill the rest of `in`, in a single
/// row-wise pass that keeps one cursor per column.
std::vector<KernelInvocation> DecodeRows(ByteReader& in, uint64_t first_seq) {
  const uint64_t count = in.Read<uint64_t>("invocation count");
  // Bound the count against the payload size BEFORE sizing the vector from
  // it -- a corrupt count must throw, never attempt a huge allocation.
  in.Require(count, kColumnarBytesPerInvocation, "invocation count");
  const char* const columns =
      in.Take(count * kColumnarBytesPerInvocation, "invocation count");
  if (in.Remaining() != 0) in.Fail("trailing bytes after chunk payload");
  std::vector<KernelInvocation> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    KernelInvocation& inv = out.emplace_back();
    inv.seq = first_seq + i;
    const char* column = columns;
    ForEachColumn(inv, [&](auto& field) {
      std::memcpy(&field, column + i * sizeof(field), sizeof(field));
      column += count * sizeof(field);
    });
  }
  return out;
}

/// Read exactly `n` bytes at `offset` of an open file.
std::string ReadAt(std::ifstream& in, uint64_t offset, uint64_t n,
                   const std::string& path) {
  std::string bytes(n, '\0');
  in.clear();
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(bytes.data(), static_cast<std::streamsize>(n));
  if (!in) throw std::runtime_error("ChunkedTraceReader: short read: " + path);
  return bytes;
}

}  // namespace

uint32_t ChunkedTraceFormatVersion() { return kVersion; }

std::string EncodeChunk(std::span<const KernelInvocation> invocations) {
  std::string out;
  AppendChunk(out, invocations);
  return out;
}

std::vector<KernelInvocation> DecodeChunk(std::string_view payload,
                                          uint64_t first_seq) {
  ByteReader in(payload, "DecodeChunk");
  return DecodeRows(in, first_seq);
}

std::string EncodeTrace(const KernelTrace& trace) {
  std::string out = EncodeHeader(
      trace, std::max<uint64_t>(1, trace.NumInvocations()));
  AppendChunk(out, trace.Invocations());
  return out;
}

KernelTrace DecodeTrace(std::string_view bytes) {
  ByteReader in(bytes, "DecodeTrace");
  KernelTrace trace;
  const uint64_t chunk_invocations = DecodeHeader(in, trace);
  std::vector<KernelInvocation> invocations = DecodeRows(in, 0);
  if (invocations.size() > chunk_invocations)
    in.Fail("chunk holds more invocations than the header's chunk capacity");
  try {
    trace.SetInvocations(std::move(invocations));
  } catch (const std::invalid_argument& e) {
    in.Fail(e.what());
  }
  return trace;
}

// ---------------------------------------------------------------------------
// ChunkedTraceWriter
// ---------------------------------------------------------------------------

struct ChunkedTraceWriter::Impl {
  std::ofstream out;
  uint64_t header_digest = 0;
};

ChunkedTraceWriter::ChunkedTraceWriter(const std::string& path,
                                       const KernelTrace& header,
                                       uint64_t chunk_invocations)
    : path_(path),
      chunk_invocations_(chunk_invocations),
      impl_(std::make_unique<Impl>()) {
  if (chunk_invocations_ == 0)
    throw std::invalid_argument(
        "ChunkedTraceWriter: chunk_invocations must be > 0");
  impl_->out.open(path, std::ios::binary | std::ios::trunc);
  if (!impl_->out)
    throw std::runtime_error("ChunkedTraceWriter: cannot open " + path);
  const std::string head = EncodeHeader(header, chunk_invocations_);
  impl_->header_digest = Xxh64(head);
  impl_->out.write(head.data(), static_cast<std::streamsize>(head.size()));
  if (!impl_->out)
    throw std::runtime_error("ChunkedTraceWriter: header write failed: " +
                             path);
  buffer_.reserve(chunk_invocations_);
}

ChunkedTraceWriter::~ChunkedTraceWriter() {
  if (!finished_) {
    try {
      Finish();
    } catch (...) {
      // Best effort in a destructor; an unfinished file has no trailer and
      // every reader rejects it, so silence is safe here.
    }
  }
}

void ChunkedTraceWriter::Append(const KernelInvocation& inv) {
  buffer_.push_back(inv);
  ++appended_;
  if (buffer_.size() >= chunk_invocations_) FlushChunk();
}

void ChunkedTraceWriter::Append(std::span<const KernelInvocation> invocations) {
  for (const KernelInvocation& inv : invocations) Append(inv);
}

void ChunkedTraceWriter::FlushChunk() {
  if (buffer_.empty()) return;
  const std::string payload = EncodeChunk(buffer_);
  ChunkInfo info;
  info.offset = static_cast<uint64_t>(impl_->out.tellp());
  info.count = buffer_.size();
  info.digest = Xxh64(payload);
  impl_->out.write(payload.data(),
                   static_cast<std::streamsize>(payload.size()));
  if (!impl_->out)
    throw std::runtime_error("ChunkedTraceWriter: chunk write failed: " +
                             path_);
  chunks_.push_back(info);
  buffer_.clear();
}

void ChunkedTraceWriter::Finish() {
  if (finished_) return;
  FlushChunk();
  const uint64_t footer_offset = static_cast<uint64_t>(impl_->out.tellp());
  std::string tail;
  tail.reserve(chunks_.size() * kFooterRecordBytes + kTrailerBytes);
  for (const ChunkInfo& c : chunks_) {
    AppendPod(tail, c.offset);
    AppendPod(tail, c.count);
    AppendPod(tail, c.digest);
  }
  AppendPod(tail, footer_offset);
  AppendPod(tail, static_cast<uint64_t>(chunks_.size()));
  AppendPod(tail, appended_);
  AppendPod(tail, impl_->header_digest);
  AppendPod(tail, kVersion);
  tail.append(kTrailerMagic, sizeof(kTrailerMagic));
  impl_->out.write(tail.data(), static_cast<std::streamsize>(tail.size()));
  impl_->out.flush();
  if (!impl_->out)
    throw std::runtime_error("ChunkedTraceWriter: footer write failed: " +
                             path_);
  impl_->out.close();
  finished_ = true;
}

// ---------------------------------------------------------------------------
// ChunkedTraceReader
// ---------------------------------------------------------------------------

struct ChunkedTraceReader::Impl {
  // Opened once; ReadChunk seeks within it. mutable because chunk reads are
  // logically const (the file is immutable after Finish()).
  mutable std::ifstream in;
};

ChunkedTraceReader::ChunkedTraceReader(const std::string& path)
    : path_(path), impl_(std::make_unique<Impl>()) {
  std::ifstream& in = impl_->in;
  in.open(path, std::ios::binary);
  if (!in) throw std::runtime_error("ChunkedTraceReader: cannot open " + path);
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  if (file_size < kTrailerBytes)
    throw std::runtime_error("ChunkedTraceReader: file too small: " + path);
  const std::string who = "ChunkedTraceReader " + path;

  // Trailer first: it locates the footer without scanning any chunks.
  const uint64_t footer_end = file_size - kTrailerBytes;
  const std::string trailer_bytes = ReadAt(in, footer_end, kTrailerBytes, path);
  ByteReader trailer(trailer_bytes, who);
  const uint64_t footer_offset = trailer.Read<uint64_t>("footer offset");
  const uint64_t num_chunks = trailer.Read<uint64_t>("chunk count");
  total_invocations_ = trailer.Read<uint64_t>("invocation total");
  const uint64_t header_digest = trailer.Read<uint64_t>("header digest");
  const uint32_t version = trailer.Read<uint32_t>("version");
  if (!trailer.ReadMagic(kTrailerMagic))
    trailer.Fail("bad trailer (unfinished or not an SRTC file)");
  CheckVersion(trailer, version);
  if (footer_offset > footer_end ||
      num_chunks > (footer_end - footer_offset) / kFooterRecordBytes ||
      num_chunks * kFooterRecordBytes != footer_end - footer_offset)
    trailer.Fail("inconsistent footer");

  // Footer index.
  const std::string footer_bytes =
      ReadAt(in, footer_offset, footer_end - footer_offset, path);
  ByteReader footer(footer_bytes, who);
  chunks_.resize(num_chunks);
  for (ChunkInfo& c : chunks_) {
    c.offset = footer.Read<uint64_t>("chunk offset");
    c.count = footer.Read<uint64_t>("chunk count");
    c.digest = footer.Read<uint64_t>("chunk digest");
  }

  // Header: chunks sit back to back after it, so it ends where chunk 0
  // starts (or where the footer starts when there are no chunks).
  const uint64_t header_end =
      chunks_.empty() ? footer_offset : chunks_.front().offset;
  if (header_end > footer_offset) footer.Fail("chunk 0 index out of bounds");
  const std::string header_bytes = ReadAt(in, 0, header_end, path);
  ByteReader head(header_bytes, who);
  if (Xxh64(header_bytes) != header_digest)
    head.Fail("header digest mismatch (corrupt data)");
  chunk_invocations_ = DecodeHeader(head, header_);
  if (head.Remaining() != 0) head.Fail("trailing bytes after header");

  uint64_t next_offset = header_end;
  uint64_t running_total = 0;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    const ChunkInfo& c = chunks_[i];
    const uint64_t room = footer_offset - next_offset;
    if (c.offset != next_offset || room < sizeof(uint64_t) ||
        c.count > (room - sizeof(uint64_t)) / kColumnarBytesPerInvocation ||
        c.count > chunk_invocations_ ||
        (c.count < chunk_invocations_ && i + 1 != chunks_.size()))
      footer.Fail("chunk " + std::to_string(i) + " index out of bounds");
    next_offset += sizeof(uint64_t) + c.count * kColumnarBytesPerInvocation;
    running_total += c.count;
  }
  if (next_offset != footer_offset)
    footer.Fail("chunks do not end where the footer starts");
  if (running_total != total_invocations_)
    footer.Fail("chunk counts disagree with trailer total");
}

ChunkedTraceReader::~ChunkedTraceReader() = default;

std::string ChunkedTraceReader::ReadChunkPayload(size_t i) const {
  const ChunkInfo& c = chunks_.at(i);
  std::string payload =
      ReadAt(impl_->in, c.offset,
             sizeof(uint64_t) + c.count * kColumnarBytesPerInvocation, path_);
  if (Xxh64(payload) != c.digest)
    throw std::runtime_error("ChunkedTraceReader: digest mismatch on chunk " +
                             std::to_string(i) + " (corrupt data): " + path_);
  return payload;
}

std::vector<KernelInvocation> ChunkedTraceReader::ReadChunk(size_t i) const {
  const std::string payload = ReadChunkPayload(i);
  return DecodeChunk(payload, static_cast<uint64_t>(i) * chunk_invocations_);
}

bool ChunkedTraceReader::VerifyChunk(size_t i) const {
  try {
    (void)ReadChunkPayload(i);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// ---------------------------------------------------------------------------
// Chunk sources
// ---------------------------------------------------------------------------

uint64_t ChunkSource::ResidentBudgetBytes() const {
  return Header().ApproxBytes() +
         2 * ChunkCapacity() * sizeof(KernelInvocation);
}

InMemoryChunkSource::InMemoryChunkSource(const KernelTrace& trace,
                                         uint64_t chunk_invocations)
    : trace_(trace),
      header_(trace.HeaderClone()),
      chunk_invocations_(chunk_invocations) {
  if (chunk_invocations_ == 0)
    throw std::invalid_argument(
        "InMemoryChunkSource: chunk_invocations must be > 0");
}

uint64_t InMemoryChunkSource::NumInvocations() const {
  return trace_.NumInvocations();
}

size_t InMemoryChunkSource::NumChunks() const {
  return static_cast<size_t>(
      (trace_.NumInvocations() + chunk_invocations_ - 1) / chunk_invocations_);
}

std::vector<KernelInvocation> InMemoryChunkSource::Chunk(size_t i) const {
  if (i >= NumChunks())
    throw std::out_of_range("InMemoryChunkSource: chunk index out of range");
  const uint64_t begin = static_cast<uint64_t>(i) * chunk_invocations_;
  const uint64_t end =
      std::min<uint64_t>(begin + chunk_invocations_, trace_.NumInvocations());
  std::span<const KernelInvocation> all = trace_.Invocations();
  return {all.begin() + static_cast<ptrdiff_t>(begin),
          all.begin() + static_cast<ptrdiff_t>(end)};
}

FileChunkSource::FileChunkSource(const std::string& path) : reader_(path) {}

std::vector<KernelInvocation> FileChunkSource::Chunk(size_t i) const {
  return reader_.ReadChunk(i);
}

ReplicatedChunkSource::ReplicatedChunkSource(const KernelTrace& base,
                                             uint64_t total_invocations,
                                             uint64_t chunk_invocations)
    : base_(base),
      header_(base.HeaderClone()),
      total_invocations_(total_invocations),
      chunk_invocations_(chunk_invocations) {
  if (base_.Empty())
    throw std::invalid_argument("ReplicatedChunkSource: base trace is empty");
  if (chunk_invocations_ == 0)
    throw std::invalid_argument(
        "ReplicatedChunkSource: chunk_invocations must be > 0");
}

size_t ReplicatedChunkSource::NumChunks() const {
  return static_cast<size_t>(
      (total_invocations_ + chunk_invocations_ - 1) / chunk_invocations_);
}

std::vector<KernelInvocation> ReplicatedChunkSource::Chunk(size_t i) const {
  if (i >= NumChunks())
    throw std::out_of_range("ReplicatedChunkSource: chunk index out of range");
  const uint64_t begin = static_cast<uint64_t>(i) * chunk_invocations_;
  const uint64_t end =
      std::min<uint64_t>(begin + chunk_invocations_, total_invocations_);
  const uint64_t base_n = base_.NumInvocations();
  std::vector<KernelInvocation> out;
  out.reserve(end - begin);
  for (uint64_t j = begin; j < end; ++j) {
    KernelInvocation inv = base_.At(j % base_n);
    inv.seq = j;
    out.push_back(inv);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Whole-trace helpers
// ---------------------------------------------------------------------------

size_t SpillTraceChunked(const KernelTrace& trace, const std::string& path,
                         uint64_t chunk_invocations) {
  const std::string tmp_path = UniqueTempPath(path);
  uint64_t cap = 0;
  std::error_code ec;
  try {
    ChunkedTraceWriter writer(tmp_path, trace, chunk_invocations);
    writer.Append(trace.Invocations());
    writer.Finish();
    cap = writer.ChunkCapacity();
  } catch (...) {
    std::filesystem::remove(tmp_path, ec);
    throw;
  }
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::error_code ignore;
    std::filesystem::remove(tmp_path, ignore);
    throw std::runtime_error("SpillTraceChunked: rename into " + path +
                             " failed: " + ec.message());
  }
  return static_cast<size_t>((trace.NumInvocations() + cap - 1) / cap);
}

KernelTrace AssembleTrace(const ChunkSource& source) {
  KernelTrace trace = source.Header().HeaderClone();
  trace.Reserve(source.NumInvocations());
  for (size_t i = 0; i < source.NumChunks(); ++i)
    for (const KernelInvocation& inv : source.Chunk(i))
      trace.Add(inv);  // Add reassigns seq == global timeline position
  return trace;
}

}  // namespace stemroot
