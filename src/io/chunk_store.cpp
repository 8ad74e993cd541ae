#include "io/chunk_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_set>

namespace dc::io {

namespace {

[[nodiscard]] std::uint64_t key_of(int chunk, int timestep) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(chunk)) << 32) |
         static_cast<std::uint32_t>(timestep);
}

}  // namespace

// ---------------------------------------------------------------------------
// ChunkStoreWriter
// ---------------------------------------------------------------------------

struct ChunkStoreWriter::OpenFile {
  std::ofstream out;
  std::filesystem::path path;
  FileHeader header;
  std::vector<ChunkIndexEntry> entries;
  std::unordered_set<std::uint64_t> seen;  ///< key_of(chunk, timestep)
  std::uint64_t cursor = sizeof(FileHeader);
};

ChunkStoreWriter::ChunkStoreWriter(std::filesystem::path root)
    : root_(std::move(root)) {
  std::filesystem::create_directories(root_);
}

ChunkStoreWriter::~ChunkStoreWriter() = default;

ChunkStoreWriter::OpenFile& ChunkStoreWriter::file_for(data::FileLocation loc,
                                                       int file_id) {
  auto it = files_.find(file_id);
  if (it != files_.end()) {
    OpenFile& f = it->second;
    if (f.header.host != loc.host || f.header.disk != loc.disk) {
      throw std::invalid_argument(
          "ChunkStoreWriter: file written with two locations");
    }
    return f;
  }
  OpenFile& f = files_[file_id];
  f.path = root_ / file_relpath(loc.host, loc.disk, file_id);
  std::filesystem::create_directories(f.path.parent_path());
  f.out.open(f.path, std::ios::binary | std::ios::trunc);
  if (!f.out) {
    throw std::runtime_error("ChunkStoreWriter: cannot open " + f.path.string());
  }
  f.header.file_id = file_id;
  f.header.host = loc.host;
  f.header.disk = loc.disk;
  // Placeholder header; rewritten (with the valid magic) by finish(). A file
  // that never reached finish() is rejected on open.
  FileHeader blank;
  f.out.write(reinterpret_cast<const char*>(&blank), sizeof(blank));
  return f;
}

void ChunkStoreWriter::put_chunk(data::FileLocation loc, int file_id, int chunk,
                                 int timestep,
                                 std::span<const std::byte> payload,
                                 ValueRange range) {
  if (finished_) {
    throw std::logic_error("ChunkStoreWriter: put_chunk after finish");
  }
  OpenFile& f = file_for(loc, file_id);
  if (!f.seen.insert(key_of(chunk, timestep)).second) {
    throw std::invalid_argument("ChunkStoreWriter: duplicate chunk entry");
  }
  ChunkIndexEntry e;
  e.chunk = chunk;
  e.timestep = timestep;
  e.offset = f.cursor;
  e.bytes = payload.size();
  e.checksum = payload_checksum(payload);
  e.min_value = range.min;
  e.max_value = range.max;
  f.out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
  f.cursor += payload.size();
  f.entries.push_back(e);
}

void ChunkStoreWriter::finish() {
  if (finished_) {
    throw std::logic_error("ChunkStoreWriter: finish called twice");
  }
  finished_ = true;
  for (auto& [file_id, f] : files_) {
    (void)file_id;
    FileHeader& h = f.header;
    h.magic = kMagic;
    h.version = kFormatVersion;
    h.num_entries = static_cast<std::uint32_t>(f.entries.size());
    h.index_offset = f.cursor;
    h.payload_bytes = f.cursor - sizeof(FileHeader);
    h.index_checksum = payload_checksum(
        std::as_bytes(std::span<const ChunkIndexEntry>(f.entries)));
    h.header_checksum = h.compute_checksum();
    f.out.write(reinterpret_cast<const char*>(f.entries.data()),
                static_cast<std::streamsize>(f.entries.size() *
                                             sizeof(ChunkIndexEntry)));
    f.out.seekp(0);
    f.out.write(reinterpret_cast<const char*>(&h), sizeof(h));
    f.out.flush();
    if (!f.out) {
      throw std::runtime_error("ChunkStoreWriter: write failed for " +
                               f.path.string());
    }
    f.out.close();
  }
}

// ---------------------------------------------------------------------------
// materialize
// ---------------------------------------------------------------------------

void materialize_dataset(const std::filesystem::path& root,
                         const data::DatasetStore& store,
                         const ChunkProducer& produce, int base_timestep,
                         int num_timesteps) {
  if (num_timesteps <= 0) {
    throw std::invalid_argument("materialize_dataset: no timesteps");
  }
  ChunkStoreWriter writer(root);
  std::vector<std::byte> payload;
  for (int t = base_timestep; t < base_timestep + num_timesteps; ++t) {
    for (int c = 0; c < store.layout().num_chunks(); ++c) {
      const int file_id = store.file_of_chunk(c);
      const data::FileLocation loc = store.location_of_file(file_id);
      payload.clear();
      const ValueRange range = produce(c, t, payload);
      writer.put_chunk(loc, file_id, c, t, payload, range);
    }
  }
  writer.finish();
}

void materialize_plume_dataset(const std::filesystem::path& root,
                               const data::DatasetStore& store,
                               const data::PlumeField& field, int base_timestep,
                               int num_timesteps) {
  std::vector<float> samples;
  materialize_dataset(
      root, store,
      [&](int chunk, int timestep, std::vector<std::byte>& out) {
        field.fill_chunk(store.layout(), chunk, static_cast<float>(timestep),
                         samples);
        const auto* begin = reinterpret_cast<const std::byte*>(samples.data());
        out.assign(begin, begin + samples.size() * sizeof(float));
        return value_range(samples);
      },
      base_timestep, num_timesteps);
}

// ---------------------------------------------------------------------------
// ChunkStore
// ---------------------------------------------------------------------------

ChunkStore::ChunkStore(const std::filesystem::path& root) : root_(root) {
  if (!std::filesystem::is_directory(root_)) {
    throw std::runtime_error("ChunkStore: no such directory: " + root_.string());
  }
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root_)) {
    if (entry.is_regular_file() && entry.path().extension() == kFileExtension) {
      paths.push_back(entry.path());
    }
  }
  if (paths.empty()) {
    throw std::runtime_error("ChunkStore: no chunk files under " +
                             root_.string());
  }
  // Directory iteration order is filesystem-dependent; sort for determinism.
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) load_file(p);
}

ChunkStore::~ChunkStore() {
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

void ChunkStore::load_file(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("ChunkStore: cannot open " + path.string());
  }
  fds_.push_back(fd);

  FileHeader h;
  if (::pread(fd, &h, sizeof(h), 0) != static_cast<ssize_t>(sizeof(h))) {
    throw std::runtime_error("ChunkStore: short header in " + path.string());
  }
  if (h.magic != kMagic) {
    throw std::runtime_error("ChunkStore: bad magic in " + path.string());
  }
  if (h.version != kFormatVersion) {
    // Explicit, structured rejection: a v1 file (FNV-1a checksums) or a v2
    // file (no value ranges, 32-byte index entries) must name the version
    // mismatch, not surface as a checksum mystery.
    throw std::runtime_error(
        "ChunkStore: incompatible format version " +
        std::to_string(h.version) + " (expected " +
        std::to_string(kFormatVersion) + ") in " + path.string());
  }
  if (h.header_checksum != h.compute_checksum()) {
    throw std::runtime_error("ChunkStore: header checksum mismatch in " +
                             path.string());
  }

  std::vector<ChunkIndexEntry> entries(h.num_entries);
  const std::size_t index_bytes = entries.size() * sizeof(ChunkIndexEntry);
  if (h.num_entries > 0 &&
      ::pread(fd, entries.data(), index_bytes,
              static_cast<off_t>(h.index_offset)) !=
          static_cast<ssize_t>(index_bytes)) {
    throw std::runtime_error("ChunkStore: short index in " + path.string());
  }
  if (h.index_checksum !=
      payload_checksum(std::as_bytes(std::span<const ChunkIndexEntry>(entries)))) {
    throw std::runtime_error("ChunkStore: index checksum mismatch in " +
                             path.string());
  }

  const DiskId disk{h.host, h.disk};
  int disk_index = -1;
  for (std::size_t i = 0; i < disks_.size(); ++i) {
    if (disks_[i] == disk) {
      disk_index = static_cast<int>(i);
      break;
    }
  }
  if (disk_index < 0) {
    disk_index = static_cast<int>(disks_.size());
    disks_.push_back(disk);
  }

  for (const ChunkIndexEntry& e : entries) {
    ChunkHandle handle;
    handle.fd = fd;
    handle.offset = e.offset;
    handle.bytes = e.bytes;
    handle.checksum = e.checksum;
    handle.disk_index = disk_index;
    handle.file_id = h.file_id;
    handle.range = ValueRange{e.min_value, e.max_value};
    if (!index_.emplace(key_of(e.chunk, e.timestep), handle).second) {
      throw std::runtime_error("ChunkStore: duplicate chunk across files in " +
                               path.string());
    }
    total_payload_bytes_ += e.bytes;
  }
}

const ChunkStore::ChunkHandle& ChunkStore::handle(int chunk,
                                                  int timestep) const {
  const auto it = index_.find(key_of(chunk, timestep));
  if (it == index_.end()) {
    throw std::out_of_range("ChunkStore: chunk " + std::to_string(chunk) +
                            " timestep " + std::to_string(timestep) +
                            " not in store");
  }
  return it->second;
}

bool ChunkStore::contains(int chunk, int timestep) const {
  return index_.find(key_of(chunk, timestep)) != index_.end();
}

}  // namespace dc::io
