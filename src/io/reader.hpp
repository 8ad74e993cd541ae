#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "io/cache.hpp"
#include "io/chunk_store.hpp"
#include "io/metrics.hpp"
#include "io/scheduler.hpp"

namespace dc::io {

/// Tuning of one ChunkReader.
struct ReaderOptions {
  std::size_t cache_bytes = 256 * 1024 * 1024;
  std::size_t queue_capacity = 64;  ///< per-disk bounded request queue
  bool verify_checksums = true;
  /// See SchedulerOptions::simulated_latency (benchmarks only).
  std::chrono::microseconds simulated_latency{0};
  /// Optional observability session, forwarded to every DiskScheduler (one
  /// "io.read" span per request on per-disk tracks) and used by the reader
  /// itself for cache.hit / cache.miss / read.join / prefetch.issue
  /// instants, one per lookup, on an "io:reader" track. Must outlive the
  /// reader.
  obs::TraceSession* trace = nullptr;
};

/// The read path of the storage subsystem: resolves (chunk, timestep)
/// through an opened ChunkStore, schedules preads on the owning disk's
/// scheduler thread, caches blocks in a shared LRU, and coalesces duplicate
/// requests (a read of a block already in flight joins that flight instead
/// of re-reading it). Readahead is ReadStream's job.
///
/// Thread-safe: any number of filter copies may call read() and drive their
/// own ReadStreams concurrently — exactly the situation under exec::Engine,
/// where every transparent copy runs on its own OS thread.
class ChunkReader {
 public:
  explicit ChunkReader(const ChunkStore& store, ReaderOptions opts = {});
  ~ChunkReader();

  ChunkReader(const ChunkReader&) = delete;
  ChunkReader& operator=(const ChunkReader&) = delete;

  /// Blocking read of one chunk payload. `io_wait_s` (when non-null)
  /// receives the wall seconds this call spent blocked on I/O (0 on a cache
  /// hit). Throws on unknown chunk or a failed/corrupt read.
  std::shared_ptr<const std::vector<std::byte>> read(int chunk, int timestep,
                                                     double* io_wait_s = nullptr);

  /// Drops the block cache (cold-cache benchmarking). In-flight requests
  /// are unaffected.
  void drop_cache();

  [[nodiscard]] IoMetrics metrics() const;
  [[nodiscard]] const ChunkStore& store() const { return store_; }
  [[nodiscard]] const ReaderOptions& options() const { return opts_; }

 private:
  friend class ReadStream;

  /// A looked-up block: resident (`data`) or the slot of its flight.
  struct Pin {
    std::shared_ptr<const std::vector<std::byte>> data;
    std::shared_ptr<IoSlot> slot;
    bool readahead = false;  ///< a ReadStream's own flight: a readahead hit
  };

  /// Cache lookup, else join the block's flight or start one. `ahead`
  /// marks a ReadStream readahead: a new flight counts as a prefetch issued.
  /// Counts nothing the consumer sees; redeem() does.
  Pin lookup(int chunk, int timestep, bool ahead);
  /// Hands a looked-up block to its consumer, waiting for its flight if
  /// needed, and counts the read. `ahead`: looked up by a ReadStream before
  /// it was consumed, so a flight that completed since is a hit.
  std::shared_ptr<const std::vector<std::byte>> redeem(int chunk, int timestep,
                                                       const Pin& pin, bool ahead,
                                                       double* io_wait_s);

  IoRequest make_request(const ChunkStore::ChunkHandle& h, std::uint64_t key,
                         std::shared_ptr<IoSlot> slot);

  /// Tracing helper: one null check when detached, one enabled check when
  /// attached. `name` must be a string literal (obs::Event does not copy it).
  void emit_instant(const char* name, int chunk, int timestep) {
    if (otrack_ != nullptr && opts_.trace->enabled()) {
      otrack_->instant(opts_.trace->now(), name, chunk, timestep);
    }
  }

  const ChunkStore& store_;
  ReaderOptions opts_;
  obs::Track* otrack_ = nullptr;  ///< shared reader lane; null when not tracing
  std::unique_ptr<BlockCache> cache_;
  std::vector<std::unique_ptr<DiskScheduler>> schedulers_;  ///< per disk

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<IoSlot>> in_flight_;
  // Bumped without mu_ when a resident block is returned, so a cache hit
  // takes no reader lock on its way to the consumer.
  std::atomic<std::uint64_t> read_calls_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::uint64_t misses_ = 0;
  std::uint64_t prefetch_issued_ = 0;
  std::uint64_t readahead_hits_ = 0;
  double read_wait_s_ = 0.0;
};

/// One Read-side copy's planned sequential read for one UOW: next() returns
/// the blocks of `plan` in plan order, blocking when a block is not there
/// yet, with the same accounting as ChunkReader::read.
///
/// Readahead is scheduled per disk, not per plan position. The plan is split
/// into per-disk cursors, and every next() tops each disk up until it holds
/// `depth` of this stream's requests queued or in service, so a disk whose
/// chunks come later in the plan still works while the copy waits on
/// another. Issued entries stay within capacity() = kLookaheadRounds x
/// `depth` x (disks the plan touches) positions of the consumer, and each
/// pins its block until it is returned, so LRU eviction cannot discard
/// readahead before it is consumed. Those pinned blocks are outside the
/// reader's cache_bytes: a stream holds at most capacity() chunks. `depth`
/// 0 is demand-only.
///
/// Single-consumer; must not outlive its reader. Destroying a stream
/// mid-plan (a UOW abort) only drops its pins: the reader completes the
/// abandoned flights into the cache as usual, and counts none of them as
/// reads.
class ReadStream {
 public:
  using Block = std::shared_ptr<const std::vector<std::byte>>;

  /// How many rounds of `depth` per disk the stream may issue ahead of the
  /// consumer. A disk's completed entries stop counting against its depth,
  /// so while the consumer works through one disk's run of the plan the
  /// other disks keep reading up to this far ahead.
  static constexpr std::size_t kLookaheadRounds = 16;

  ReadStream() = default;  ///< empty: done() from the start
  ReadStream(ChunkReader& reader, std::vector<int> plan, int timestep,
             int depth);
  ReadStream(ReadStream&&) = default;
  ReadStream& operator=(ReadStream&&) = default;

  /// The next planned block. `io_wait_s` (when non-null) receives the wall
  /// seconds spent blocked on I/O. Throws like ChunkReader::read.
  Block next(double* io_wait_s = nullptr);

  [[nodiscard]] bool done() const { return next_ >= plan_.size(); }
  /// Entries issued ahead of the consumer and not yet returned.
  [[nodiscard]] std::size_t unconsumed() const { return issued_ - redeemed_; }
  /// The cap on unconsumed(); 0 when demand-only.
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

 private:
  struct DiskCursor {
    std::vector<std::size_t> positions;  ///< this disk's plan positions
    std::size_t issued = 0;   ///< positions[0, issued) were looked up
    std::size_t settled = 0;  ///< positions[0, settled) no longer occupy it
  };

  void top_up();

  ChunkReader* reader_ = nullptr;
  std::vector<int> plan_;
  int timestep_ = 0;
  std::size_t depth_ = 0;
  std::size_t next_ = 0;  ///< plan position the next next() returns
  /// The issue window, indexed by plan position % size; an empty Pin is an
  /// entry not looked up yet.
  std::vector<ChunkReader::Pin> ring_;
  std::vector<DiskCursor> disks_;  ///< only the disks the plan touches
  std::size_t issued_ = 0;
  std::size_t redeemed_ = 0;
};

}  // namespace dc::io
