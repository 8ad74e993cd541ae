#include "io/reader.hpp"

#include <stdexcept>
#include <utility>

namespace dc::io {

namespace {

[[nodiscard]] std::uint64_t key_of(int chunk, int timestep) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(chunk)) << 32) |
         static_cast<std::uint32_t>(timestep);
}

}  // namespace

ChunkReader::ChunkReader(const ChunkStore& store, ReaderOptions opts)
    : store_(store), opts_(opts) {
  if (opts_.trace != nullptr) {
    otrack_ = &opts_.trace->track("io:reader");
  }
  cache_ = std::make_unique<BlockCache>(opts_.cache_bytes);
  SchedulerOptions sched;
  sched.queue_capacity = opts_.queue_capacity;
  sched.simulated_latency = opts_.simulated_latency;
  sched.trace = opts_.trace;
  schedulers_.reserve(store_.disks().size());
  for (const DiskId& d : store_.disks()) {
    schedulers_.push_back(std::make_unique<DiskScheduler>(d, sched));
  }
}

ChunkReader::~ChunkReader() {
  // Join the scheduler threads before any other member dies: a straggling
  // on_complete callback touches mu_, in_flight_, and cache_.
  schedulers_.clear();
}

IoRequest ChunkReader::make_request(const ChunkStore::ChunkHandle& h,
                                    std::uint64_t key,
                                    std::shared_ptr<IoSlot> slot) {
  IoRequest req;
  req.fd = h.fd;
  req.offset = h.offset;
  req.bytes = h.bytes;
  req.checksum = h.checksum;
  req.verify = opts_.verify_checksums;
  req.slot = slot;
  req.on_complete =
      [this, key, slot](std::shared_ptr<const std::vector<std::byte>> data) {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = in_flight_.find(key);
        // Publish only while retiring our own flight. If the entry is gone
        // (a waiter already published and retired it) or belongs to a newer
        // flight for the same key, inserting here would resurrect the block
        // into a cache the owner may since have evicted from or dropped
        // entirely.
        if (it == in_flight_.end() || it->second != slot) return;
        if (data) cache_->put(key, std::move(data));
        in_flight_.erase(it);
      };
  return req;
}

std::shared_ptr<const std::vector<std::byte>> ChunkReader::read(
    int chunk, int timestep, double* io_wait_s) {
  return redeem(chunk, timestep, lookup(chunk, timestep, /*ahead=*/false),
                /*ahead=*/false, io_wait_s);
}

ChunkReader::Pin ChunkReader::lookup(int chunk, int timestep, bool ahead) {
  const std::uint64_t key = key_of(chunk, timestep);
  const ChunkStore::ChunkHandle& h = store_.handle(chunk, timestep);

  Pin pin;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if ((pin.data = cache_->get(key))) {
      emit_instant("cache.hit", chunk, timestep);
      return pin;
    }
    emit_instant("cache.miss", chunk, timestep);
    const auto it = in_flight_.find(key);
    if (it != in_flight_.end()) {
      // Coalesce onto the in-flight read. Only the stream that started a
      // flight counts it as a readahead hit.
      pin.slot = it->second;
      emit_instant("read.join", chunk, timestep);
      return pin;
    }
    pin.slot = std::make_shared<IoSlot>();
    pin.readahead = ahead;
    in_flight_.emplace(key, pin.slot);
    if (ahead) {
      ++prefetch_issued_;
      emit_instant("prefetch.issue", chunk, timestep);
    }
  }
  // Block when the disk queue is full (backpressure).
  schedulers_[static_cast<std::size_t>(h.disk_index)]->submit(
      make_request(h, key, pin.slot));
  return pin;
}

std::shared_ptr<const std::vector<std::byte>> ChunkReader::redeem(
    int chunk, int timestep, const Pin& pin, bool ahead, double* io_wait_s) {
  if (io_wait_s != nullptr) *io_wait_s = 0.0;
  if (pin.data) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    read_calls_.fetch_add(1, std::memory_order_relaxed);
    return pin.data;
  }
  double waited = 0.0;
  auto data = pin.slot->wait(waited);
  {
    std::lock_guard<std::mutex> lk(mu_);
    read_wait_s_ += waited;
    if (ahead && waited == 0.0) {
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++misses_;
    }
    if (pin.readahead) ++readahead_hits_;
    read_calls_.fetch_add(1, std::memory_order_relaxed);
    // Publish + retire eagerly instead of waiting for on_complete to run on
    // the scheduler thread: a caller that sequences read(a); read(b) must
    // see read(a)'s effect on the cache (and its eviction) before read(b).
    // on_complete then finds the block resident / the flight gone and
    // no-ops.
    const std::uint64_t key = key_of(chunk, timestep);
    cache_->put(key, data);
    const auto it = in_flight_.find(key);
    if (it != in_flight_.end() && it->second == pin.slot) in_flight_.erase(it);
  }
  if (io_wait_s != nullptr) *io_wait_s = waited;
  return data;
}

void ChunkReader::drop_cache() { cache_->clear(); }

ReadStream::ReadStream(ChunkReader& reader, std::vector<int> plan, int timestep,
                       int depth)
    : reader_(&reader),
      plan_(std::move(plan)),
      timestep_(timestep),
      depth_(depth > 0 ? static_cast<std::size_t>(depth) : 0) {
  if (depth_ == 0) return;  // demand-only: next() is a plain read()
  const ChunkStore& store = reader.store();
  disks_.resize(store.disks().size());
  for (std::size_t p = 0; p < plan_.size(); ++p) {
    // An unknown chunk gets no cursor: next() demand-reads it, which throws
    // exactly where a plain read() would.
    if (!store.contains(plan_[p], timestep_)) continue;
    disks_[static_cast<std::size_t>(store.handle(plan_[p], timestep_).disk_index)]
        .positions.push_back(p);
  }
  std::erase_if(disks_, [](const DiskCursor& d) { return d.positions.empty(); });
  ring_.resize(kLookaheadRounds * depth_ * disks_.size());
  top_up();  // start every disk now, as the copy initializes
}

void ReadStream::top_up() {
  const std::size_t window_end = next_ + ring_.size();
  for (DiskCursor& d : disks_) {
    for (;;) {
      // An entry stops occupying its disk once consumed or completed. Disks
      // serve FIFO, so the first incomplete entry ends the scan.
      while (d.settled < d.issued) {
        const std::size_t p = d.positions[d.settled];
        const ChunkReader::Pin& pin = ring_[p % ring_.size()];
        if (p >= next_ && pin.slot && !pin.slot->is_done()) break;
        ++d.settled;
      }
      if (d.issued - d.settled >= depth_ || d.issued == d.positions.size() ||
          d.positions[d.issued] >= window_end) {
        break;
      }
      const std::size_t p = d.positions[d.issued++];
      ring_[p % ring_.size()] =
          reader_->lookup(plan_[p], timestep_, /*ahead=*/true);
      ++issued_;
    }
  }
}

ReadStream::Block ReadStream::next(double* io_wait_s) {
  if (done()) throw std::logic_error("ReadStream: read past the end of the plan");
  ChunkReader::Pin pin;
  if (!ring_.empty()) {
    top_up();
    pin = std::exchange(ring_[next_ % ring_.size()], {});
  }
  const int chunk = plan_[next_++];
  // Demand-only, or an unknown chunk: a plain read(), which throws for it.
  if (!pin.data && !pin.slot) return reader_->read(chunk, timestep_, io_wait_s);
  ++redeemed_;
  double waited = 0.0;
  Block data = reader_->redeem(chunk, timestep_, pin, /*ahead=*/true, &waited);
  // Other disks may have finished their share while this one blocked:
  // refill them before the caller goes off to compute.
  if (waited > 0.0) top_up();
  if (io_wait_s != nullptr) *io_wait_s = waited;
  return data;
}

IoMetrics ChunkReader::metrics() const {
  IoMetrics m;
  for (const auto& s : schedulers_) m.disks.push_back(s->metrics());
  m.cache = cache_->metrics();
  std::lock_guard<std::mutex> lk(mu_);
  m.cache.hits = hits_.load(std::memory_order_relaxed);
  m.cache.misses = misses_;
  m.cache.readahead_hits = readahead_hits_;
  m.cache.prefetch_issued = prefetch_issued_;
  m.read_calls = read_calls_.load(std::memory_order_relaxed);
  m.read_wait_s = read_wait_s_;
  return m;
}

}  // namespace dc::io
