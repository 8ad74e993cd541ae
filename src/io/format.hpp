#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>

#include "core/crc32c.hpp"

namespace dc::io {

/// On-disk chunk-store format (".dcc" files).
///
/// One file per dataset file id, under a per-(host, disk) directory tree:
///
///   <root>/h<host>/d<disk>/f<file_id>.dcc
///
/// mirroring how data::DatasetStore maps dataset files onto the disks of the
/// cluster — a Read filter on host H only ever opens files below h<H>/.
///
/// File layout:
///
///   [FileHeader (64 B)] [chunk payloads, back to back] [ChunkIndexEntry...]
///
/// The header is written last (the writer seeks back), so a crash mid-write
/// leaves a file with a zeroed magic that open() rejects. Every payload and
/// the header itself carry checksums; the index entries are covered by the
/// header's index_checksum.
///
/// Format version 2: every checksum is CRC32C (core/crc32c.hpp — hardware
/// CRC32 instruction where available), stored zero-extended in the
/// unchanged 64-bit fields, so the layout is byte-compatible with v1 while
/// the digests are not. A v1 file is rejected explicitly by version number
/// ("incompatible format version"), never misdiagnosed as corruption.
///
/// Format version 3: every index entry also records its payload's value
/// range (ValueRange), so a reader can skip a chunk an isosurface cannot
/// cross without reading it. A v2 file is rejected by version number the
/// same way.
inline constexpr std::uint32_t kMagic = 0x31534344;  // "DCS1" little-endian
inline constexpr std::uint32_t kFormatVersion = 3;
inline constexpr const char* kFileExtension = ".dcc";

/// CRC32C of a payload, widened to the format's 64-bit checksum fields.
[[nodiscard]] inline std::uint64_t payload_checksum(
    std::span<const std::byte> bytes) {
  return core::crc32c(bytes);
}

/// FNV-1a over a byte range — the v1 digest, kept so the migration tests
/// can fabricate v1-era files; the same digest primitive viz::Image uses.
[[nodiscard]] inline std::uint64_t fnv1a(std::span<const std::byte> bytes,
                                         std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Fixed-size file header. All fields little-endian (the toolchain targets
/// little-endian hosts; static_asserts keep the layout honest).
struct FileHeader {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::int32_t file_id = -1;
  std::int32_t host = -1;
  std::int32_t disk = 0;
  std::uint32_t num_entries = 0;
  std::uint64_t index_offset = 0;    ///< byte offset of the index region
  std::uint64_t payload_bytes = 0;   ///< total chunk payload bytes
  std::uint64_t index_checksum = 0;  ///< CRC32C over the index entries
  std::uint64_t header_checksum = 0; ///< CRC32C over all preceding fields
  std::uint8_t reserved[8] = {};

  [[nodiscard]] std::uint64_t compute_checksum() const {
    return payload_checksum({reinterpret_cast<const std::byte*>(this),
                             offsetof(FileHeader, header_checksum)});
  }
};
static_assert(sizeof(FileHeader) == 64);

/// The smallest and largest float sample of a payload. The default is the
/// open range (-inf, +inf), stored for payloads that are not float samples
/// (the external sort's record runs): it excludes nothing.
struct ValueRange {
  float min = -std::numeric_limits<float>::infinity();
  float max = std::numeric_limits<float>::infinity();
  bool operator==(const ValueRange&) const = default;
};

/// The range of `samples`. A NaN sample compares false against every iso
/// value, like a sample above all of them, so it is recorded as max = +inf.
/// No samples give the empty range (+inf, -inf).
[[nodiscard]] inline ValueRange value_range(std::span<const float> samples) {
  ValueRange r{std::numeric_limits<float>::infinity(),
               -std::numeric_limits<float>::infinity()};
  for (float v : samples) {
    if (std::isnan(v)) {
      r.max = std::numeric_limits<float>::infinity();
      continue;
    }
    if (v < r.min) r.min = v;
    if (v > r.max) r.max = v;
  }
  return r;
}

/// One chunk payload within a file, keyed by (chunk, timestep).
struct ChunkIndexEntry {
  std::int32_t chunk = -1;
  std::int32_t timestep = 0;
  std::uint64_t offset = 0;  ///< absolute byte offset of the payload
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;  ///< CRC32C over the payload
  /// The payload's ValueRange (v3).
  float min_value = -std::numeric_limits<float>::infinity();
  float max_value = std::numeric_limits<float>::infinity();
};
static_assert(sizeof(ChunkIndexEntry) == 40);

/// Relative path of one store file below the root.
[[nodiscard]] inline std::string file_relpath(int host, int disk, int file_id) {
  return "h" + std::to_string(host) + "/d" + std::to_string(disk) + "/f" +
         std::to_string(file_id) + kFileExtension;
}

}  // namespace dc::io
