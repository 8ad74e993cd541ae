#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "io/metrics.hpp"

namespace dc::io {

/// Thread-safe LRU block cache keyed by (chunk, timestep), holding shared
/// immutable payloads. Capacity is in payload bytes; inserting past capacity
/// evicts from the cold end. A single oversized block is still admitted
/// (the cache then holds just that block) so readers never spin on an
/// uncacheable chunk.
///
/// The cache counts insertions and evictions only: whether a read was a hit
/// is decided by the ChunkReader when the block reaches its consumer, which
/// for a ReadStream entry is after the lookup.
class BlockCache {
 public:
  explicit BlockCache(std::size_t capacity_bytes);

  /// nullptr when not resident; a resident block becomes the hottest.
  std::shared_ptr<const std::vector<std::byte>> get(std::uint64_t key);

  /// Inserts a block. No-op if the key is already resident: the entry keeps
  /// its LRU position (recency is refreshed by get(), not by re-insertion).
  void put(std::uint64_t key, std::shared_ptr<const std::vector<std::byte>> data);

  /// Drops every block (for cold-cache benchmarking).
  void clear();

  [[nodiscard]] CacheMetrics metrics() const;
  [[nodiscard]] std::size_t capacity_bytes() const { return capacity_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const std::vector<std::byte>> data;
  };

  void evict_locked();

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = hottest
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map_;
  std::size_t bytes_ = 0;
  CacheMetrics metrics_;
};

}  // namespace dc::io
