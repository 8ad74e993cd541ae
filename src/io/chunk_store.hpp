#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/store.hpp"
#include "data/synth.hpp"
#include "io/format.hpp"

namespace dc::io {

/// Identity of one physical disk directory (h<host>/d<disk>) in a store.
struct DiskId {
  int host = -1;
  int disk = 0;
  bool operator==(const DiskId&) const = default;
};

/// Streams chunk payloads into a per-(host, disk) directory tree in the
/// on-disk format of io/format.hpp. Usage:
///
///   ChunkStoreWriter w(root);
///   w.put_chunk(loc, file_id, chunk, timestep, bytes, range);  // any order
///   w.finish();                                    // throws on failure
///
/// Chunks belonging to one dataset file must all carry that file's location;
/// a (chunk, timestep) pair may be written at most once per file. `range` is
/// the payload's value range (value_range() of its float samples); it
/// defaults to the open range, which no reader ever skips.
class ChunkStoreWriter {
 public:
  explicit ChunkStoreWriter(std::filesystem::path root);
  ~ChunkStoreWriter();

  ChunkStoreWriter(const ChunkStoreWriter&) = delete;
  ChunkStoreWriter& operator=(const ChunkStoreWriter&) = delete;

  void put_chunk(data::FileLocation loc, int file_id, int chunk, int timestep,
                 std::span<const std::byte> payload, ValueRange range = {});

  /// Writes every index + header and closes all files. Must be called
  /// exactly once; throws std::runtime_error if any stream failed.
  void finish();

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }

 private:
  struct OpenFile;
  OpenFile& file_for(data::FileLocation loc, int file_id);

  std::filesystem::path root_;
  std::map<int, OpenFile> files_;  ///< by file_id
  bool finished_ = false;
};

/// Produces the payload of (chunk, timestep) during materialization and
/// returns its value range (the open range `{}` when it has none).
using ChunkProducer = std::function<ValueRange(int chunk, int timestep,
                                               std::vector<std::byte>& out)>;

/// Materializes a data::DatasetStore's placement into an on-disk tree under
/// `root`: every chunk of every timestep in [base_timestep,
/// base_timestep + num_timesteps) is produced and written to the file /
/// (host, disk) directory its DatasetStore location names.
void materialize_dataset(const std::filesystem::path& root,
                         const data::DatasetStore& store,
                         const ChunkProducer& produce, int base_timestep,
                         int num_timesteps);

/// Convenience producer: PlumeField samples, bit-identical to
/// data::PlumeField::fill_chunk (so an out-of-core render reproduces the
/// in-memory images exactly), each indexed with its value range.
void materialize_plume_dataset(const std::filesystem::path& root,
                               const data::DatasetStore& store,
                               const data::PlumeField& field, int base_timestep,
                               int num_timesteps);

/// An opened on-disk chunk store: scans the directory tree, validates every
/// header and index, and resolves (chunk, timestep) to a pread-able byte
/// range. File descriptors stay open for the store's lifetime and are shared
/// by the per-disk scheduler threads (pread is position-less and
/// thread-safe on a shared descriptor).
class ChunkStore {
 public:
  explicit ChunkStore(const std::filesystem::path& root);
  ~ChunkStore();

  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  /// Where one chunk payload lives.
  struct ChunkHandle {
    int fd = -1;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;
    int disk_index = 0;  ///< dense index into disks()
    int file_id = -1;
    ValueRange range;  ///< the payload's samples, from the index
  };

  /// Throws std::out_of_range if the pair is not in the store.
  [[nodiscard]] const ChunkHandle& handle(int chunk, int timestep) const;
  [[nodiscard]] bool contains(int chunk, int timestep) const;

  [[nodiscard]] const std::vector<DiskId>& disks() const { return disks_; }
  [[nodiscard]] int num_files() const { return static_cast<int>(fds_.size()); }
  [[nodiscard]] std::size_t num_chunks() const { return index_.size(); }
  [[nodiscard]] std::uint64_t total_payload_bytes() const {
    return total_payload_bytes_;
  }
  [[nodiscard]] const std::filesystem::path& root() const { return root_; }

 private:
  void load_file(const std::filesystem::path& path);

  std::filesystem::path root_;
  std::vector<int> fds_;
  std::vector<DiskId> disks_;
  std::unordered_map<std::uint64_t, ChunkHandle> index_;  ///< key(chunk, ts)
  std::uint64_t total_payload_bytes_ = 0;
};

}  // namespace dc::io
