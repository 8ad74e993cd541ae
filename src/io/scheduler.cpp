#include "io/scheduler.hpp"

#include <unistd.h>

#include <algorithm>
#include <stdexcept>

#include "core/arena.hpp"
#include "io/format.hpp"

namespace dc::io {

namespace {

[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::shared_ptr<const std::vector<std::byte>> IoSlot::wait(double& waited_s) {
  std::unique_lock<std::mutex> lk(mu);
  waited_s = 0.0;
  if (!done) {
    const auto t0 = std::chrono::steady_clock::now();
    cv.wait(lk, [this] { return done; });
    waited_s = seconds_since(t0);
  }
  if (!error.empty()) {
    throw std::runtime_error(error);
  }
  return data;
}

DiskScheduler::DiskScheduler(DiskId id, SchedulerOptions opts)
    : id_(id), opts_(opts) {
  if (opts_.queue_capacity == 0) {
    throw std::invalid_argument("DiskScheduler: queue capacity must be > 0");
  }
  metrics_.host = id_.host;
  metrics_.disk = id_.disk;
  if (opts_.trace != nullptr) {
    otrack_ = &opts_.trace->track("io:disk h" + std::to_string(id_.host) +
                                  "/d" + std::to_string(id_.disk));
  }
  thread_ = std::thread([this] { thread_main(); });
}

DiskScheduler::~DiskScheduler() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_.notify_all();
  space_.notify_all();
  thread_.join();
  // thread_main exits on stop_ without draining, so teardown is fast even
  // with a deep queue of simulated-latency requests. Fail whatever is still
  // queued so waiters do not hang (their on_complete is never invoked).
  for (auto& [req, enqueued] : queue_) {
    (void)enqueued;
    std::lock_guard<std::mutex> lk(req.slot->mu);
    req.slot->error = "DiskScheduler: stopped before request was served";
    req.slot->done = true;
    req.slot->cv.notify_all();
  }
  queue_.clear();
}

void DiskScheduler::submit(IoRequest req) {
  std::unique_lock<std::mutex> lk(mu_);
  space_.wait(lk, [this] { return queue_.size() < opts_.queue_capacity || stop_; });
  if (stop_) {
    throw std::logic_error("DiskScheduler: submit after stop");
  }
  queue_.emplace_back(std::move(req), std::chrono::steady_clock::now());
  metrics_.max_queue_depth = std::max(metrics_.max_queue_depth, queue_.size());
  work_.notify_one();
}

DiskMetrics DiskScheduler::metrics() const {
  std::lock_guard<std::mutex> lk(mu_);
  return metrics_;
}

void DiskScheduler::thread_main() {
  for (;;) {
    IoRequest req;
    double queue_wait = 0.0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_.wait(lk, [this] { return !queue_.empty() || stop_; });
      if (stop_) return;  // destructor fails anything left in the queue
      auto [r, enqueued] = std::move(queue_.front());
      queue_.pop_front();
      req = std::move(r);
      queue_wait = seconds_since(enqueued);
      space_.notify_one();
    }
    serve(req, queue_wait);
  }
}

void DiskScheduler::serve(IoRequest& req, double queue_wait) {
  const auto t0 = std::chrono::steady_clock::now();
  if (otrack_ != nullptr && opts_.trace->enabled()) {
    otrack_->begin(opts_.trace->seconds(t0), "io.read",
                   static_cast<std::int64_t>(req.bytes),
                   static_cast<std::int64_t>(queue_wait * 1e6));
  }
  // The read block is an arena slot: the same storage the cache shares and
  // a filter may push downstream — the disk→NIC path starts copy-free here.
  auto data = core::BufferArena::global().lease(req.bytes);
  data->resize(req.bytes);
  std::string error;

  std::size_t got = 0;
  while (got < req.bytes) {
    const ssize_t n =
        ::pread(req.fd, data->data() + got, req.bytes - got,
                static_cast<off_t>(req.offset + got));
    if (n < 0) {
      error = "DiskScheduler: pread failed on disk h" +
              std::to_string(id_.host) + "/d" + std::to_string(id_.disk);
      break;
    }
    if (n == 0) {
      error = "DiskScheduler: short read (truncated store file)";
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  if (error.empty() && req.verify && payload_checksum(*data) != req.checksum) {
    error = "DiskScheduler: payload checksum mismatch (corrupt chunk)";
  }
  if (opts_.simulated_latency.count() > 0) {
    std::this_thread::sleep_for(opts_.simulated_latency);
  }

  std::shared_ptr<const std::vector<std::byte>> completed =
      error.empty() ? std::shared_ptr<const std::vector<std::byte>>(
                          std::move(data))
                    : nullptr;
  // Account the request BEFORE releasing the waiter: anyone who observed a
  // completed read must also observe it in the metrics.
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++metrics_.requests;
    metrics_.bytes += req.bytes;
    metrics_.queue_wait_s += queue_wait;
    metrics_.service_s += seconds_since(t0);
  }
  if (otrack_ != nullptr && opts_.trace->enabled()) {
    otrack_->end(opts_.trace->now(), "io.read");
  }
  {
    std::lock_guard<std::mutex> lk(req.slot->mu);
    if (completed) {
      req.slot->data = completed;
    } else {
      req.slot->error = std::move(error);
    }
    req.slot->done = true;
    req.slot->cv.notify_all();
  }
  if (req.on_complete) {
    req.on_complete(std::move(completed));
  }
}

}  // namespace dc::io
