#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "io/cache.hpp"
#include "io/chunk_store.hpp"
#include "io/reader.hpp"

// ChunkReader behavior: concurrency, the LRU block cache, request
// coalescing, and the per-disk readahead of ReadStream with its
// consumer-side accounting.

namespace dc::io {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kChunkBytes = 4096;

/// A store of single-chunk payloads (chunk c filled with pattern c) on one
/// host, chunk c on disk directory `disk_of[c]`.
fs::path write_placed_store(const std::string& name, const std::vector<int>& disk_of) {
  const fs::path root = fs::temp_directory_path() / ("dc_io_reader_" + name);
  fs::remove_all(root);
  ChunkStoreWriter w(root);
  std::vector<std::byte> payload(kChunkBytes);
  for (int c = 0; c < static_cast<int>(disk_of.size()); ++c) {
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::byte>((c * 31 + static_cast<int>(i)) & 0xff);
    }
    w.put_chunk({0, disk_of[static_cast<std::size_t>(c)]}, /*file_id=*/c, c,
                /*timestep=*/0, payload);
  }
  w.finish();
  return root;
}

/// `n` chunks spread round-robin over `disks` disk directories.
fs::path write_pattern_store(const std::string& name, int n, int disks = 2) {
  std::vector<int> disk_of;
  for (int c = 0; c < n; ++c) disk_of.push_back(c % disks);
  return write_placed_store(name, disk_of);
}

std::vector<int> first_chunks(int n) {
  std::vector<int> plan(static_cast<std::size_t>(n));
  std::iota(plan.begin(), plan.end(), 0);
  return plan;
}

std::uint64_t total_requests(const IoMetrics& m) {
  std::uint64_t n = 0;
  for (const DiskMetrics& d : m.disks) n += d.requests;
  return n;
}

/// Bounded poll: true once disk `disk` of host 0 has served `n` requests,
/// false if that takes longer than 10 s.
bool await_served(const ChunkReader& reader, int disk, std::uint64_t n) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    for (const DiskMetrics& d : reader.metrics().disks) {
      if (d.host == 0 && d.disk == disk && d.requests >= n) return true;
    }
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
}

bool payload_matches(const std::vector<std::byte>& got, int c) {
  if (got.size() != kChunkBytes) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != static_cast<std::byte>((c * 31 + static_cast<int>(i)) & 0xff)) {
      return false;
    }
  }
  return true;
}

TEST(BlockCacheTest, LruEvictsLeastRecentlyUsed) {
  BlockCache cache(2 * kChunkBytes);
  auto block = [] {
    return std::make_shared<const std::vector<std::byte>>(kChunkBytes);
  };
  cache.put(1, block());
  cache.put(2, block());
  EXPECT_NE(cache.get(1), nullptr);  // 1 is now more recent than 2
  cache.put(3, block());             // evicts 2
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  const CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.evictions, 1u);
  EXPECT_EQ(m.insertions, 3u);
  EXPECT_EQ(m.resident_blocks, 2u);
  EXPECT_LE(m.bytes_cached, 2 * kChunkBytes);
}

TEST(BlockCacheTest, KeepsAtLeastOneEntryAndRejectsZeroCapacity) {
  EXPECT_THROW(BlockCache{0}, std::invalid_argument);
  BlockCache cache(16);  // smaller than any block
  cache.put(1, std::make_shared<const std::vector<std::byte>>(1024));
  EXPECT_NE(cache.get(1), nullptr);  // oversized blocks still cache (1 entry)
  cache.put(2, std::make_shared<const std::vector<std::byte>>(1024));
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_NE(cache.get(2), nullptr);
}

TEST(ChunkReaderTest, ConcurrentReadersSeeCorrectBytes) {
  const fs::path root = write_pattern_store("concurrent", 16, /*disks=*/4);
  ChunkStore store(root);
  ChunkReader reader(store);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int> bad(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 16; ++i) {
        // Different orders per thread: exercises coalescing + cache races.
        const int c = (t % 2 == 0) ? i : 15 - i;
        const auto data = reader.read(c, 0);
        if (!payload_matches(*data, c)) ++bad[static_cast<std::size_t>(t)];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[static_cast<std::size_t>(t)], 0);

  const IoMetrics m = reader.metrics();
  EXPECT_EQ(m.read_calls, static_cast<std::uint64_t>(kThreads) * 16u);
  // Every block hits disk at least once and at most... once per demand call;
  // with the cache, far fewer than read_calls reads reach the disk.
  EXPECT_GE(m.cache.insertions, 16u);
  EXPECT_GT(m.cache.hits, 0u);
  EXPECT_EQ(m.cache.hits + m.cache.misses, m.read_calls);
  fs::remove_all(root);
}

TEST(ReadStreamTest, ReadaheadHitsAndConsumerSeenHits) {
  const fs::path root = write_pattern_store("readahead", 8);
  ChunkStore store(root);
  ReaderOptions opts;
  opts.simulated_latency = std::chrono::microseconds(2000);
  ChunkReader reader(store, opts);
  ReadStream stream(reader, first_chunks(4), /*timestep=*/0, /*depth=*/2);
  // Let every readahead complete before anything is consumed: each entry
  // then reaches its consumer without a disk wait, which is a hit. A block
  // enters the cache only after its waiters were released.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (reader.metrics().cache.insertions < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(reader.metrics().cache.insertions, 4u);
  EXPECT_EQ(reader.metrics().read_calls, 0u);  // nothing consumed yet
  for (int c = 0; c < 4; ++c) {
    double waited = -1.0;
    EXPECT_TRUE(payload_matches(*stream.next(&waited), c));
    EXPECT_EQ(waited, 0.0);
  }
  const IoMetrics m = reader.metrics();
  EXPECT_EQ(m.read_calls, 4u);
  EXPECT_EQ(m.cache.hits, 4u);
  EXPECT_EQ(m.cache.misses, 0u);
  EXPECT_EQ(m.cache.readahead_hits, 4u);
  EXPECT_EQ(m.cache.prefetch_issued, 4u);
  EXPECT_EQ(total_requests(m), 4u);  // each block read from disk exactly once
  fs::remove_all(root);
}

TEST(ReadStreamTest, DemandReadJoinsAStreamsFlight) {
  const fs::path root = write_pattern_store("join", 2);
  ChunkStore store(root);
  ReaderOptions opts;
  opts.simulated_latency = std::chrono::microseconds(50000);  // 50 ms
  ChunkReader reader(store, opts);
  ReadStream stream(reader, first_chunks(2), /*timestep=*/0, /*depth=*/2);
  // The read arrives while the stream's read of chunk 1 is still sleeping
  // in serve(): it must wait on the same slot, not issue a second request.
  double waited = 0.0;
  EXPECT_TRUE(payload_matches(*reader.read(1, 0, &waited), 1));
  EXPECT_GT(waited, 0.0);
  EXPECT_TRUE(payload_matches(*stream.next(), 0));
  EXPECT_TRUE(payload_matches(*stream.next(), 1));
  const IoMetrics m = reader.metrics();
  EXPECT_EQ(total_requests(m), 2u);
  EXPECT_EQ(m.read_calls, 3u);
  EXPECT_EQ(m.cache.hits + m.cache.misses, 3u);
  // Only the stream that started a flight counts it as readahead.
  EXPECT_EQ(m.cache.prefetch_issued, 2u);
  EXPECT_EQ(m.cache.readahead_hits, 2u);
  EXPECT_GT(m.read_wait_s, 0.0);
  fs::remove_all(root);
}

TEST(ChunkReaderTest, TinyCacheEvictsAndRereadsFromDisk) {
  const fs::path root = write_pattern_store("evict", 4, /*disks=*/1);
  ChunkStore store(root);
  ReaderOptions opts;
  opts.cache_bytes = 2 * kChunkBytes;
  ChunkReader reader(store, opts);
  // 0, 1, 2, 0: the second read of 0 must go back to disk (it was evicted).
  for (int c : {0, 1, 2, 0}) {
    EXPECT_TRUE(payload_matches(*reader.read(c, 0), c));
  }
  const IoMetrics m = reader.metrics();
  EXPECT_EQ(m.cache.misses, 4u);
  EXPECT_EQ(m.cache.hits, 0u);
  EXPECT_GE(m.cache.evictions, 2u);
  std::uint64_t disk_requests = 0;
  for (const DiskMetrics& d : m.disks) disk_requests += d.requests;
  EXPECT_EQ(disk_requests, 4u);
  fs::remove_all(root);
}

TEST(ReadStreamTest, SkipsResidentBlocks) {
  const fs::path root = write_pattern_store("resident", 2);
  ChunkStore store(root);
  ChunkReader reader(store);
  EXPECT_TRUE(payload_matches(*reader.read(0, 0), 0));
  ReadStream stream(reader, first_chunks(2), /*timestep=*/0, /*depth=*/2);
  EXPECT_TRUE(payload_matches(*stream.next(), 0));  // resident: no disk traffic
  EXPECT_TRUE(payload_matches(*stream.next(), 1));
  const IoMetrics m = reader.metrics();
  EXPECT_EQ(m.cache.prefetch_issued, 1u);
  EXPECT_EQ(m.cache.readahead_hits, 1u);
  EXPECT_EQ(m.read_calls, 3u);
  EXPECT_EQ(total_requests(m), 2u);
  fs::remove_all(root);
}

TEST(ChunkReaderTest, UnknownChunkThrows) {
  const fs::path root = write_pattern_store("unknown", 2);
  ChunkStore store(root);
  ChunkReader reader(store);
  EXPECT_THROW(reader.read(99, 0), std::out_of_range);
  EXPECT_THROW(reader.read(0, 3), std::out_of_range);
  // A stream throws for an unknown chunk only when it reaches it.
  ReadStream stream(reader, {0, 99, 1}, /*timestep=*/0, /*depth=*/2);
  EXPECT_TRUE(payload_matches(*stream.next(), 0));
  EXPECT_THROW(stream.next(), std::out_of_range);
  EXPECT_TRUE(payload_matches(*stream.next(), 1));
  fs::remove_all(root);
}

TEST(ChunkReaderTest, DropCacheGoesColdAgain) {
  const fs::path root = write_pattern_store("dropcache", 4);
  ChunkStore store(root);
  ChunkReader reader(store);
  for (int c = 0; c < 4; ++c) reader.read(c, 0);
  for (int c = 0; c < 4; ++c) reader.read(c, 0);  // warm
  EXPECT_EQ(reader.metrics().cache.hits, 4u);
  reader.drop_cache();
  for (int c = 0; c < 4; ++c) reader.read(c, 0);  // cold again
  const IoMetrics m = reader.metrics();
  EXPECT_EQ(m.cache.hits, 4u);
  EXPECT_EQ(m.cache.misses, 8u);
  fs::remove_all(root);
}

TEST(ChunkReaderTest, MetricsLedgerIsConsistent) {
  const fs::path root = write_pattern_store("ledger", 8, /*disks=*/2);
  ChunkStore store(root);
  ChunkReader reader(store);
  for (int c = 0; c < 8; ++c) reader.read(c, 0);
  const IoMetrics m = reader.metrics();
  EXPECT_EQ(m.disks.size(), 2u);
  EXPECT_EQ(m.total_disk_bytes(), 8u * kChunkBytes);
  EXPECT_GE(m.total_queue_wait_s(), 0.0);
  EXPECT_GE(m.read_wait_s, 0.0);
  for (const DiskMetrics& d : m.disks) {
    EXPECT_EQ(d.host, 0);
    EXPECT_EQ(d.requests, 4u);
    EXPECT_EQ(d.bytes, 4u * kChunkBytes);
    EXPECT_GE(d.max_queue_depth, 1u);
    EXPECT_GE(d.service_s, 0.0);
  }
  fs::remove_all(root);
}

TEST(ReadStreamTest, StartsALaterDiskBeforeConsumptionReachesIt) {
  // Plan: 16 chunks on disk 0, then 16 on disk 1. A window over plan
  // positions would leave disk 1 idle until entry 14; per-disk readahead
  // starts it as soon as the stream opens.
  std::vector<int> disk_of(32, 0);
  std::fill(disk_of.begin() + 16, disk_of.end(), 1);
  const fs::path root = write_placed_store("stream_later_disk", disk_of);
  ChunkStore store(root);
  ReaderOptions opts;
  opts.simulated_latency = std::chrono::microseconds(2000);
  ChunkReader reader(store, opts);
  ReadStream stream(reader, first_chunks(32), /*timestep=*/0, /*depth=*/2);
  EXPECT_TRUE(await_served(reader, /*disk=*/1, 2))
      << "disk 1 idled while nothing was consumed";
  for (int c = 0; c < 32; ++c) {
    EXPECT_TRUE(payload_matches(*stream.next(), c)) << "entry " << c;
  }
  EXPECT_TRUE(stream.done());
  EXPECT_THROW(stream.next(), std::logic_error);

  const IoMetrics m = reader.metrics();
  EXPECT_EQ(total_requests(m), 32u);  // each block read once
  EXPECT_EQ(m.read_calls, 32u);
  EXPECT_EQ(m.cache.prefetch_issued, 32u);
  EXPECT_EQ(m.cache.readahead_hits, 32u);  // every readahead was used
  fs::remove_all(root);
}

TEST(ReadStreamTest, BoundsPerDiskDepthAndUnconsumedEntries) {
  // Runs of four chunks alternate between the two disks; the plan is long
  // enough for the stream to reach its cap well before the end.
  constexpr int kChunks = 96;
  std::vector<int> disk_of;
  for (int c = 0; c < kChunks; ++c) disk_of.push_back((c / 4) % 2);
  const fs::path root = write_placed_store("stream_bounds", disk_of);
  ChunkStore store(root);
  ReaderOptions opts;
  opts.simulated_latency = std::chrono::microseconds(200);
  ChunkReader reader(store, opts);
  ReadStream stream(reader, first_chunks(kChunks), /*timestep=*/0, /*depth=*/1);
  // The cap follows from depth and the disks the plan touches alone.
  const std::size_t cap = ReadStream::kLookaheadRounds * 1 * 2;
  ASSERT_EQ(stream.capacity(), cap);
  std::size_t most_ahead = 0;
  for (int c = 0; c < kChunks; ++c) {
    // A slow consumer: let every issued read finish first, so the stream
    // has all the room it wants to run ahead.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (total_requests(reader.metrics()) <
               static_cast<std::uint64_t>(c) + stream.unconsumed() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(payload_matches(*stream.next(), c)) << "entry " << c;
    EXPECT_LE(stream.unconsumed(), cap) << "entry " << c;
    most_ahead = std::max(most_ahead, stream.unconsumed());
  }
  EXPECT_GE(most_ahead, cap - 1);  // the cap, not the disks, held it back
  for (const DiskMetrics& d : reader.metrics().disks) {
    EXPECT_LE(d.max_queue_depth, 1u) << "disk " << d.disk;
    EXPECT_EQ(d.requests, static_cast<std::uint64_t>(kChunks / 2)) << "disk " << d.disk;
  }
  fs::remove_all(root);
}

TEST(ReadStreamTest, DepthZeroIssuesNoPrefetches) {
  const fs::path root = write_pattern_store("stream_depth0", 8);
  ChunkStore store(root);
  ChunkReader reader(store);
  ReadStream stream(reader, first_chunks(8), /*timestep=*/0, /*depth=*/0);
  for (int c = 0; c < 8; ++c) {
    EXPECT_EQ(stream.unconsumed(), 0u);
    EXPECT_TRUE(payload_matches(*stream.next(), c));
  }
  const IoMetrics m = reader.metrics();
  EXPECT_EQ(m.cache.prefetch_issued, 0u);
  EXPECT_EQ(m.read_calls, 8u);
  EXPECT_EQ(total_requests(m), 8u);
  fs::remove_all(root);
}

TEST(ReadStreamTest, AbandonedStreamStrandsNoFlight) {
  auto& arena = core::BufferArena::global();
  const core::ArenaStats before = arena.stats();
  const fs::path root = write_pattern_store("stream_abandon", 16);
  {
    ChunkStore store(root);
    ReaderOptions opts;
    opts.simulated_latency = std::chrono::microseconds(20000);  // 20 ms
    {
      ChunkReader reader(store, opts);
      {
        ReadStream stream(reader, first_chunks(16), /*timestep=*/0, /*depth=*/2);
        EXPECT_TRUE(payload_matches(*stream.next(), 0));
        EXPECT_GT(stream.unconsumed(), 0u);
      }  // a UOW abort: dropped mid-plan with reads queued and in service
      // Only the consumed entry counts as a read.
      IoMetrics m = reader.metrics();
      EXPECT_EQ(m.read_calls, 1u);
      EXPECT_EQ(m.cache.hits + m.cache.misses, 1u);
      EXPECT_EQ(m.cache.readahead_hits, 1u);
      // Every abandoned block is still readable — joined in flight or
      // cached by its completion — and none is read twice.
      for (int c = 1; c < 16; ++c) {
        EXPECT_TRUE(payload_matches(*reader.read(c, 0), c)) << "chunk " << c;
      }
      m = reader.metrics();
      EXPECT_EQ(total_requests(m), 16u);
      EXPECT_EQ(m.read_calls, 16u);
      EXPECT_EQ(m.cache.readahead_hits, 1u);  // joins are not readahead hits
    }
    {
      // Drop a stream and then its reader while reads are still queued:
      // the reader's destructor fails them instead of hanging.
      ChunkReader reader(store, opts);
      ReadStream stream(reader, first_chunks(16), /*timestep=*/0, /*depth=*/2);
      stream = ReadStream();
    }
  }
  EXPECT_EQ(arena.stats().outstanding(), before.outstanding());
  fs::remove_all(root);
}

}  // namespace
}  // namespace dc::io
