#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dc::obs {
class MetricsRegistry;
}

namespace dc::io {

/// Counters of one per-disk I/O scheduler thread. Durations are wall-clock
/// seconds, in the style of core::InstanceMetrics: queue_wait is the time
/// requests sat enqueued before the disk thread picked them up, service is
/// the time spent inside pread (plus any simulated device latency).
struct DiskMetrics {
  int host = -1;
  int disk = 0;
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
  double queue_wait_s = 0.0;
  double service_s = 0.0;
  std::size_t max_queue_depth = 0;

  [[nodiscard]] double avg_queue_wait_s() const {
    return requests ? queue_wait_s / static_cast<double>(requests) : 0.0;
  }
};

/// Block-cache counters. hits, misses and readahead_hits are counted when a
/// block reaches its consumer (ChunkReader::read or ReadStream::next), never
/// for a ReadStream entry that was abandoned before it was returned. A hit
/// is a block returned without waiting on a disk: resident when looked up,
/// or a stream entry whose read completed before it was consumed. A
/// readahead hit is a returned stream entry whose read the stream itself
/// started (prefetch_issued) — the number of disk waits readahead hid.
struct CacheMetrics {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::uint64_t readahead_hits = 0;
  std::uint64_t prefetch_issued = 0;
  /// Always 0: ReadStream readahead is never dropped. Kept because the
  /// end-to-end benchmark ledger still reports it.
  std::uint64_t prefetch_dropped = 0;
  std::uint64_t bytes_cached = 0;      ///< current resident payload bytes
  /// Currently resident blocks. Conservation invariant (asserted by
  /// tests/test_obs_invariants.cpp): insertions - evictions == resident_blocks
  /// at all times — clear() therefore counts every dropped block as an
  /// eviction rather than zeroing silently.
  std::uint64_t resident_blocks = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0;
  }
};

/// Everything a ChunkReader measured: one DiskMetrics per scheduler thread
/// plus the shared cache, mirroring how core::Metrics aggregates per-instance
/// counters.
struct IoMetrics {
  std::vector<DiskMetrics> disks;
  CacheMetrics cache;
  std::uint64_t read_calls = 0;
  double read_wait_s = 0.0;  ///< wall seconds read() spent blocked on I/O

  [[nodiscard]] std::uint64_t total_disk_bytes() const {
    std::uint64_t total = 0;
    for (const auto& d : disks) total += d.bytes;
    return total;
  }
  [[nodiscard]] double total_queue_wait_s() const {
    double total = 0.0;
    for (const auto& d : disks) total += d.queue_wait_s;
    return total;
  }
};

/// Publishes this IoMetrics snapshot into the unified registry under dotted
/// `<prefix>.` names: reader counters, the `<prefix>.cache.*` group, summed
/// disk totals, and one `<prefix>.disk.h<host>.d<disk>.*` group per
/// scheduler thread. The storage-side counterpart of core::publish.
void publish(const IoMetrics& m, obs::MetricsRegistry& reg,
             const std::string& prefix = "io");

}  // namespace dc::io
