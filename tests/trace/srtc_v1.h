/// \file
/// Test helper: rewrite a current SRTC file as the version-1 layout, the
/// way that format wrote it, so tests can check that version-1 files are
/// rejected (and rebuilt where a caller treats them as a cache).
///
/// Version 1 differs from version 2 in three places: the header and
/// trailer say 1, each footer digest is FNV-1a64 over the chunk payload,
/// and the 32-byte trailer has no header digest.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/cache.h"

namespace stemroot::testing_srtc {

template <typename T>
T ReadPodAt(std::string_view bytes, size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

template <typename T>
void AppendPodTo(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// `v2` is a whole version-2 file (header, chunks, footer, 40-byte
/// trailer); returns the same trace as a version-1 file.
inline std::string ToVersionOneFile(std::string_view v2) {
  constexpr size_t kV2Trailer = 40;
  constexpr size_t kRowBytes = 96;  // wire bytes per invocation
  const size_t trailer = v2.size() - kV2Trailer;
  const auto footer_offset = ReadPodAt<uint64_t>(v2, trailer);
  const auto num_chunks = ReadPodAt<uint64_t>(v2, trailer + 8);
  const auto total = ReadPodAt<uint64_t>(v2, trailer + 16);

  std::string v1(v2.substr(0, footer_offset));
  const uint32_t version = 1;
  std::memcpy(v1.data() + 4, &version, sizeof(version));  // after "SRTC"
  for (uint64_t i = 0; i < num_chunks; ++i) {
    const size_t record = footer_offset + i * 24;
    const auto offset = ReadPodAt<uint64_t>(v2, record);
    const auto count = ReadPodAt<uint64_t>(v2, record + 8);
    AppendPodTo(v1, offset);
    AppendPodTo(v1, count);
    AppendPodTo(v1, Fnv1a64(v2.substr(offset, 8 + count * kRowBytes)));
  }
  AppendPodTo(v1, footer_offset);
  AppendPodTo(v1, num_chunks);
  AppendPodTo(v1, total);
  AppendPodTo(v1, version);
  v1 += "SRTF";
  return v1;
}

}  // namespace stemroot::testing_srtc
