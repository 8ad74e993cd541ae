#include "io/cache.hpp"

#include <stdexcept>

namespace dc::io {

BlockCache::BlockCache(std::size_t capacity_bytes) : capacity_(capacity_bytes) {
  if (capacity_ == 0) {
    throw std::invalid_argument("BlockCache: capacity must be > 0");
  }
}

std::shared_ptr<const std::vector<std::byte>> BlockCache::get(std::uint64_t key) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->data;
}

void BlockCache::put(std::uint64_t key,
                     std::shared_ptr<const std::vector<std::byte>> data) {
  std::lock_guard<std::mutex> lk(mu_);
  if (map_.find(key) != map_.end()) return;
  bytes_ += data->size();
  lru_.push_front(Entry{key, std::move(data)});
  map_[key] = lru_.begin();
  ++metrics_.insertions;
  evict_locked();
  metrics_.bytes_cached = bytes_;
  metrics_.resident_blocks = lru_.size();
}

void BlockCache::evict_locked() {
  while (bytes_ > capacity_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.data->size();
    map_.erase(victim.key);
    lru_.pop_back();
    ++metrics_.evictions;
  }
}

void BlockCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  // Dropped blocks are evictions too: clear() must keep the conservation
  // invariant insertions - evictions == resident_blocks.
  metrics_.evictions += lru_.size();
  lru_.clear();
  map_.clear();
  bytes_ = 0;
  metrics_.bytes_cached = 0;
  metrics_.resident_blocks = 0;
}

CacheMetrics BlockCache::metrics() const {
  std::lock_guard<std::mutex> lk(mu_);
  return metrics_;
}

}  // namespace dc::io
