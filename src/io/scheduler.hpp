#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/chunk_store.hpp"
#include "io/metrics.hpp"
#include "obs/recorder.hpp"

namespace dc::io {

/// Completion slot of one read request. The submitter waits on `cv` until
/// `done`; `data` holds the payload (shared so the block cache and several
/// waiting readers can alias it), `error` is non-empty on failure.
struct IoSlot {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::shared_ptr<const std::vector<std::byte>> data;
  std::string error;

  /// Blocks until completion; returns seconds spent waiting. Throws
  /// std::runtime_error on a failed read.
  std::shared_ptr<const std::vector<std::byte>> wait(double& waited_s);

  /// Non-blocking completion probe.
  [[nodiscard]] bool is_done() {
    std::lock_guard<std::mutex> lk(mu);
    return done;
  }
};

/// One read request against an open store file.
struct IoRequest {
  int fd = -1;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
  bool verify = true;
  std::shared_ptr<IoSlot> slot;
  /// Invoked on the scheduler thread after the slot is completed (data is
  /// null on failure). The ChunkReader uses it to publish the block to the
  /// cache and retire the in-flight entry — an abandoned readahead has no
  /// waiter, so completion must not depend on anyone calling slot->wait().
  std::function<void(std::shared_ptr<const std::vector<std::byte>>)> on_complete;
};

/// Tuning knobs of one scheduler thread.
struct SchedulerOptions {
  std::size_t queue_capacity = 64;  ///< bounded request queue
  /// Added to every request's service time. Zero for production; benchmarks
  /// set it to emulate device latency when the files sit in the page cache
  /// (otherwise every read returns in microseconds and readahead has nothing
  /// to hide).
  std::chrono::microseconds simulated_latency{0};
  /// Optional observability session. When set, the scheduler thread records
  /// one "io.read" span per served request (a0 = bytes, a1 = queue depth at
  /// submit) on a per-disk track. Must outlive the scheduler.
  obs::TraceSession* trace = nullptr;
};

/// One I/O scheduler thread per simulated disk — the storage-side mirror of
/// exec::Engine's one-thread-per-copy design. Requests are served FIFO from
/// a bounded queue; submit() blocks when the queue is full (backpressure on
/// the producer).
class DiskScheduler {
 public:
  DiskScheduler(DiskId id, SchedulerOptions opts);
  ~DiskScheduler();

  DiskScheduler(const DiskScheduler&) = delete;
  DiskScheduler& operator=(const DiskScheduler&) = delete;

  /// Enqueues `req`, blocking while the queue is at capacity.
  void submit(IoRequest req);

  [[nodiscard]] DiskMetrics metrics() const;
  [[nodiscard]] DiskId id() const { return id_; }

 private:
  void thread_main();
  void serve(IoRequest& req, double queue_wait);

  DiskId id_;
  SchedulerOptions opts_;
  obs::Track* otrack_ = nullptr;  ///< per-disk lane; null when not tracing

  mutable std::mutex mu_;
  std::condition_variable work_;   ///< scheduler: queue non-empty or stopping
  std::condition_variable space_;  ///< producers: queue below capacity
  std::deque<std::pair<IoRequest, std::chrono::steady_clock::time_point>> queue_;
  bool stop_ = false;
  DiskMetrics metrics_;

  std::thread thread_;
};

}  // namespace dc::io
