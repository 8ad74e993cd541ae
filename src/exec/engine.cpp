#include "exec/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/arena.hpp"
#include "core/autoplace.hpp"
#include "core/buffer.hpp"
#include "core/filter.hpp"
#include "core/writer_state.hpp"
#include "exec/queue.hpp"
#include "io/spill.hpp"

namespace dc::exec {

namespace {

using Clock = std::chrono::steady_clock;
using net::Frame;
using net::FrameType;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Effective writer window in governed mode: the channel's governor decides
/// memory residency, so the per-target dispatch window must not be the
/// bottleneck — a producer runs ahead as far as the budget (and then the
/// spill file) lets it. Half of INT_MAX keeps the WriterState arithmetic
/// comfortably clear of overflow.
constexpr int kElasticWindow = std::numeric_limits<int>::max() / 2;

struct PendingOut {
  int port;
  core::Buffer buf;
};

/// Per-stream counters private to one worker thread; summed into the shared
/// core::Metrics after the UOW's threads joined (the joins provide the
/// happens-before, so no atomics are needed anywhere in the hot path).
struct StreamDelta {
  std::uint64_t buffers = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t message_bytes = 0;
};

}  // namespace

const char* to_string(RunStatus s) {
  switch (s) {
    case RunStatus::kComplete:
      return "complete";
    case RunStatus::kAborted:
      return "aborted";
    case RunStatus::kTransportError:
      return "transport-error";
  }
  return "?";
}

/// A buffer delivered into a copy set's channel. `route` is the full
/// engine-agnostic identity (it arrived embedded in a DATA frame, or was
/// built by an in-process dispatch); `origin` says which rank's producer
/// must be settled on dequeue — in-process via WriterState, otherwise via
/// CREDIT / ACK frames.
struct Engine::Delivery {
  core::Buffer buf;
  core::BufferRoute route;
  int origin = -1;
};

/// All transparent copies of one (filter, host) placement entry. Every rank
/// materializes the plan's full copy-set list (so stream target indices
/// agree across processes); only sets in this process get a channel and
/// instances. The copies of a set share its channel, demand-balancing within
/// the host exactly like the simulator's copy sets share their queues.
struct Engine::CopySetRt : core::UowPlan::CopySet {
  /// Overflow store for the governed regime (null when ungoverned or in
  /// another process). Declared before the channel so the channel — whose
  /// spill hooks hold a raw pointer to it — is destroyed first.
  std::unique_ptr<io::SpillFile> spill;
  PortChannel<Delivery> channel;

  // Fault-tolerance state (unused when detection == kNone).
  /// Failed over: routing fences the set, late credits for it are stale.
  /// Written under state_mu_; atomic so dispatch's dead-target predicate
  /// can read it under only the producer's wmu.
  std::atomic<bool> down{false};
  /// In-process consumer sets only: per input stream, which producer copies
  /// have settled their end-of-work marker (frame arrival OR death
  /// settlement) — the exactly-once guard between the two. state_mu_.
  std::map<int, std::vector<char>> eow_seen;
};

/// Writer-side state of one producer copy for one output port: the shared
/// flow-control / policy state machine plus the stream binding.
struct Engine::Writer : core::WriterState {
  const core::UowPlan::Stream* stream = nullptr;
  std::span<CopySetRt> targets;  ///< the stream's consumer copy sets
  /// Dispatch window. Governed, a stream whose targets all run in this
  /// process is not window-limited — memory residency is the governor's
  /// call and spill absorbs overflow. A stream that crosses the wire keeps
  /// `window`: the credit protocol meters it.
  int window = 0;
  /// Per target: envelope copies of dispatched buffers not yet the
  /// consumer's responsibility (released by CREDIT under RR/WRR, by ACK
  /// under DD; reclaimed wholesale at failover). Payload storage is shared,
  /// so retention costs an envelope, not a data copy. Empty when fault
  /// tolerance is off.
  std::vector<std::deque<core::Buffer>> retained;
};

/// One transparent copy in this process, bound to one worker thread.
/// `writers` (and `retry`) are guarded by wmu — the owner dispatches;
/// consumer threads and the peer-link recv threads (applying CREDIT / ACK
/// frames) release windows. Everything else is owner-thread only.
struct Engine::Instance : core::UowPlan::Copy {
  CopySetRt* cset = nullptr;
  std::unique_ptr<core::Filter> user;
  std::vector<Writer> writers;  ///< per output port

  std::mutex wmu;               ///< guards every writer's WriterState
  std::condition_variable wcv;  ///< signalled when a window slot frees

  bool in_init = false;
  std::deque<PendingOut> pending;  ///< writes deferred until the callback ends
  /// Buffers reclaimed from a failed-over target, queued for retransmission
  /// ahead of fresh output (oldest first, the simulator's requeue order).
  /// Guarded by wmu — failovers run on recv / monitor threads.
  std::deque<PendingOut> retry;

  core::InstanceMetrics m;
  std::vector<StreamDelta> stream_local;  ///< per stream, owner thread only
  std::unique_ptr<ContextImpl> ctx;
  obs::Track* otrack = nullptr;  ///< lazily bound by Engine::obs_track
};

/// FilterContext implementation bound to one Instance. Identity, ports and
/// buffer sizes come from the plan, as in the simulator, so filters run
/// unmodified; charge() / read_disk() only account demand here — real time
/// is whatever the hardware takes.
struct Engine::ContextImpl final : core::PlanContext {
  ContextImpl(const core::UowPlan& plan, Instance& instance)
      : core::PlanContext(plan, instance), inst(&instance) {}

  Instance* inst;
  Clock::time_point epoch;

  [[nodiscard]] sim::SimTime now() const override {
    return seconds_since(epoch);  // wall seconds since the UOW started
  }

  void charge(double ops) override {
    if (ops < 0.0) throw std::invalid_argument("charge: negative ops");
    inst->m.work_ops += ops;
  }

  void read_disk(int local_disk, std::uint64_t bytes) override {
    if (!is_source()) {
      throw std::logic_error("read_disk is only available to source filters");
    }
    if (local_disk < 0) {
      throw std::out_of_range("read_disk: no such local disk");
    }
    inst->m.disk_bytes += bytes;
  }

  void note_io_wait(double seconds) override {
    inst->m.io_wait_time += seconds;
  }

  void write(int port, core::Buffer buf) override {
    if (inst->in_init) {
      throw std::logic_error("write() is not allowed in init()");
    }
    if (port < 0 || port >= num_output_ports()) {
      throw std::out_of_range("write: bad output port");
    }
    inst->pending.push_back(PendingOut{port, std::move(buf)});
  }

  [[nodiscard]] core::Buffer make_buffer(int port) const override {
    // Arena-backed: the slot this lease hands out is the SAME storage a DATA
    // frame points its payload iovec at — the zero-copy contract.
    return core::BufferArena::global().make(buffer_bytes(port));
  }
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Engine::Engine(const core::Graph& graph, const core::Placement& placement,
               core::RuntimeConfig config, HostInfo hosts)
    : Engine(graph, placement, std::move(config), /*rank=*/0,
             /*num_ranks=*/1, {}, {}, std::move(hosts)) {
  if (fault_tolerant()) {
    throw std::invalid_argument(
        "exec::Engine: fault detection needs peer ranks; a single-process "
        "engine requires RuntimeConfig::detection == kNone");
  }
}

Engine::Engine(const core::Graph& graph, const core::Placement& placement,
               core::RuntimeConfig config, int rank, int num_ranks,
               std::vector<net::Socket> peers, DistributedOptions opts,
               HostInfo hosts)
    : graph_(graph),
      placement_(placement),
      config_(std::move(config)),
      opts_(opts),
      host_classes_(std::move(hosts.host_classes)),
      rank_(rank),
      num_ranks_(num_ranks),
      peer_sockets_(std::move(peers)),
      peer_done_next_(static_cast<std::size_t>(std::max(num_ranks, 0)), 0),
      rank_dead_(static_cast<std::size_t>(std::max(num_ranks, 0))),
      last_heard_ns_(static_cast<std::size_t>(std::max(num_ranks, 0))),
      hosts_counted_(static_cast<std::size_t>(std::max(num_ranks, 0)), 0),
      base_rng_(config_.rng_seed) {
  core::validate(graph_, placement_);
  core::validate(config_);
  if (num_ranks_ <= 0 || rank_ < 0 || rank_ >= num_ranks_) {
    throw std::invalid_argument("exec::Engine: bad rank/num_ranks");
  }
  if (fault_tolerant() && num_ranks_ > 64) {
    throw std::invalid_argument(
        "exec::Engine: fault tolerance supports at most 64 ranks "
        "(the DONE frame's dead-rank bitmask is 64 bits)");
  }
  if (num_ranks_ > 1 &&
      peer_sockets_.size() != static_cast<std::size_t>(num_ranks_)) {
    throw std::invalid_argument("exec::Engine: peers must be indexed by rank");
  }
  for (int r = 0; r < num_ranks_; ++r) {
    if (r != rank_ && !peer_sockets_[static_cast<std::size_t>(r)].valid()) {
      throw std::invalid_argument("exec::Engine: missing peer " +
                                  std::to_string(r));
    }
  }
  for (int f = 0; f < graph_.num_filters(); ++f) {
    for (const auto& e : placement_.entries(f)) {
      if (num_ranks_ > 1 && (e.host < 0 || e.host >= num_ranks_)) {
        throw std::invalid_argument(
            "exec::Engine: filter '" + graph_.filter(f).name +
            "' placed on host " + std::to_string(e.host) + " but only " +
            std::to_string(num_ranks_) + " rank(s) exist");
      }
    }
  }
  metrics_.streams.resize(static_cast<std::size_t>(graph_.num_streams()));
  for (int s = 0; s < graph_.num_streams(); ++s) {
    metrics_.streams[static_cast<std::size_t>(s)].name = graph_.stream(s).name;
  }
  if (config_.memory_budget_bytes > 0) {
    core::GovernorConfig gc;
    gc.budget_bytes = config_.memory_budget_bytes;
    gc.spill_dir = config_.spill_dir;
    governor_ = std::make_unique<core::MemoryGovernor>(gc);
    // Budget-derived arena retention (restored when the governor dies).
    governor_->govern(core::BufferArena::global());
  }
}

Engine::~Engine() { shutdown(); }

core::GovernorStats Engine::governor_stats() const {
  return governor_ ? governor_->stats() : core::GovernorStats{};
}

void Engine::set_obs(obs::TraceSession* session) {
  obs_ = session;
  net_track_ = session != nullptr && num_ranks_ > 1
                   ? &session->track("net:r" + std::to_string(rank_))
                   : nullptr;
}

obs::Track* Engine::obs_track(Instance& inst) {
  if (obs_ == nullptr) return nullptr;
  if (inst.otrack == nullptr) {
    inst.otrack = &obs_->track("exec:" + graph_.filter(inst.filter).name +
                               "#" + std::to_string(inst.index) + "@h" +
                               std::to_string(inst.host));
  }
  return inst.otrack;
}

void Engine::start_links() {
  // Two phases: construct EVERY link before starting ANY pump thread. A
  // started link's recv thread may immediately call abort_run, which walks
  // links_ to broadcast — that walk must never race a later assignment.
  links_.resize(static_cast<std::size_t>(num_ranks_));
  for (int r = 0; r < num_ranks_; ++r) {
    if (r == rank_) continue;
    links_[static_cast<std::size_t>(r)] = std::make_unique<net::PeerLink>(
        rank_, r, std::move(peer_sockets_[static_cast<std::size_t>(r)]),
        &net_metrics_, obs_);
  }
  peer_sockets_.clear();
  const std::int64_t t0 = now_ns();
  for (int r = 0; r < num_ranks_; ++r) {
    auto& l = links_[static_cast<std::size_t>(r)];
    if (!l) continue;
    last_heard_ns_[static_cast<std::size_t>(r)].store(
        t0, std::memory_order_relaxed);
    if (fault_tolerant()) l->enable_heartbeat(opts_.heartbeat_interval_s);
    l->start(
        [this](int peer, const Frame& f) { on_frame(peer, f); },
        [this](int peer, net::WireError err, const std::string& detail) {
          on_wire_error(peer, err, detail);
        });
  }
  if (fault_tolerant()) {
    monitor_ = std::thread([this] { monitor_main(); });
  }
}

void Engine::shutdown() {
  {
    std::lock_guard<std::mutex> lk(monitor_mu_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  for (auto& l : links_) {
    if (l) l->stop(/*flush=*/true);
  }
}

void Engine::monitor_main() {
  // Poll at half the beacon cadence; every received frame refreshes
  // last_heard, so a peer is suspected only after peer_timeout_s of total
  // silence — which a live peer never shows once beacons are armed.
  const auto poll = std::chrono::duration<double>(
      std::max(0.005, opts_.heartbeat_interval_s * 0.5));
  const auto timeout_ns =
      static_cast<std::int64_t>(opts_.peer_timeout_s * 1e9);
  std::unique_lock<std::mutex> lk(monitor_mu_);
  for (;;) {
    if (monitor_cv_.wait_for(lk, poll, [this] { return monitor_stop_; })) {
      return;
    }
    const std::int64_t now = now_ns();
    for (int r = 0; r < num_ranks_; ++r) {
      if (r == rank_ ||
          rank_dead_[static_cast<std::size_t>(r)].load(
              std::memory_order_relaxed) != 0) {
        continue;
      }
      if (now - last_heard_ns_[static_cast<std::size_t>(r)].load(
                    std::memory_order_relaxed) <=
          timeout_ns) {
        continue;
      }
      lk.unlock();
      on_peer_dead(r);
      lk.lock();
      if (monitor_stop_) return;
    }
  }
}

// ---------------------------------------------------------------------------
// UOW setup / teardown
// ---------------------------------------------------------------------------

void Engine::build_uow() {
  // Every rank builds the same plan, so a stream's target index means the
  // same copy set on every rank (and inside every BufferRoute on the wire),
  // and every copy draws the random stream it would get in the simulator.
  plan_ = core::UowPlan(graph_, pl(), config_, host_classes_, uow_index_,
                        base_rng_);
  std::vector<CopySetRt>(plan_.copysets().size()).swap(copysets_);
  for (std::size_t i = 0; i < copysets_.size(); ++i) {
    CopySetRt& cset = copysets_[i];
    static_cast<core::UowPlan::CopySet&>(cset) = plan_.copysets()[i];
    if (!in_process(cset.host)) continue;  // remote: a routing target only
    const int in_ports = graph_.filter(cset.filter).num_input_ports;
    // A channel with a producer on another rank absorbs everything the
    // credit windows allow outstanding — up to `window` un-dequeued buffers
    // per producer copy and port — so recv-side pushes never block (the
    // deadlock-freedom invariant of the credit loop). A channel fed only
    // from this process holds `window` per port; its producers block.
    std::size_t max_producers = 1;
    std::size_t slot_bytes = 1;
    bool wire_fed = false;
    for (const core::UowPlan::Stream& s : plan_.streams()) {
      if (s.spec->to_filter != cset.filter) continue;
      max_producers =
          std::max(max_producers, static_cast<std::size_t>(s.producers));
      slot_bytes = std::max(slot_bytes, s.buffer_bytes);
      for (const auto& e : pl().entries(s.spec->from_filter)) {
        wire_fed = wire_fed || !in_process(e.host);
      }
    }
    if (governor_ != nullptr && in_ports > 0) {
      // Governed regime: `window` becomes the per-port floor and the
      // channel spills overflow into this copy set's scratch file. Recv
      // threads STILL never block — a governed push spills on elastic
      // denial instead of waiting. The slot size registered as the floor
      // entitlement is the largest negotiated buffer among the filter's
      // input streams.
      cset.channel.init(in_ports, static_cast<std::size_t>(config_.window),
                        &aborted_);
      cset.spill = std::make_unique<io::SpillFile>(
          std::filesystem::path(config_.spill_dir));
      io::SpillFile* file = cset.spill.get();
      SpillOps<Delivery> ops;
      ops.size = [](const Delivery& d) {
        return std::max<std::size_t>(d.buf.capacity(), 1);
      };
      ops.evict = [file](Delivery& d) {
        const std::uint64_t token = file->append(d.buf.bytes());
        // Keep routing metadata in a storage-less shell; the payload now
        // lives only in the spill file (route / origin stay in d).
        core::Buffer shell = core::Buffer::adopt(nullptr, d.buf.capacity());
        shell.set_route_key(d.buf.route_key());
        d.buf = std::move(shell);
        return token;
      };
      ops.restore = [file](Delivery& d, std::uint64_t token) {
        auto slot = core::BufferArena::global().lease(d.buf.capacity());
        file->read(token, *slot);  // CRC32C-verified
        core::Buffer full =
            core::Buffer::adopt(std::move(slot), d.buf.capacity());
        full.set_route_key(d.buf.route_key());
        d.buf = std::move(full);
      };
      cset.channel.bind_governor(governor_.get(), slot_bytes, std::move(ops));
    } else {
      cset.channel.init(in_ports,
                        static_cast<std::size_t>(config_.window) *
                            (wire_fed ? max_producers : 1),
                        &aborted_);
    }
  }

  // EOW bookkeeping for in-process consumer sets: one marker per producer
  // copy of the stream, whichever rank that producer runs on (remote ones
  // arrive as EOW frames).
  for (const core::UowPlan::Stream& s : plan_.streams()) {
    for (CopySetRt& cset : s.targets(copysets_)) {
      if (!in_process(cset.host)) continue;
      cset.channel.expect_eow(s.spec->to_port, s.producers);
      if (fault_tolerant()) {
        cset.eow_seen[s.id].assign(static_cast<std::size_t>(s.producers), 0);
      }
    }
  }

  // Instances: the plan's copies that run in this process.
  local_.assign(plan_.copies().size(), nullptr);
  for (std::size_t id = 0; id < plan_.copies().size(); ++id) {
    const core::UowPlan::Copy& copy = plan_.copies()[id];
    if (!in_process(copy.host)) continue;
    auto inst = std::make_unique<Instance>(copy);
    inst->cset = &copysets_[static_cast<std::size_t>(copy.copyset)];
    inst->user = plan_.instantiate(copy);
    inst->writers.resize(
        static_cast<std::size_t>(graph_.filter(copy.filter).num_output_ports));
    for (std::size_t port = 0; port < inst->writers.size(); ++port) {
      Writer& w = inst->writers[port];
      w.stream = &plan_.out_stream(copy.filter, static_cast<int>(port));
      w.targets = w.stream->targets(copysets_);
      const bool all_in_process =
          std::all_of(w.targets.begin(), w.targets.end(),
                      [&](const CopySetRt& t) { return in_process(t.host); });
      w.window = governor_ != nullptr && all_in_process ? kElasticWindow
                                                        : config_.window;
      w.reset(w.targets.size());
      if (fault_tolerant()) w.retained.assign(w.targets.size(), {});
    }
    inst->m = copy.ledger();
    inst->stream_local.resize(static_cast<std::size_t>(graph_.num_streams()));
    inst->ctx = std::make_unique<ContextImpl>(plan_, *inst);
    local_[id] = inst.get();
    instances_.push_back(std::move(inst));
  }
  census_.reset(plan_);

  // Bound each link's outbox at what the credit windows allow outstanding
  // from this rank — per producer copy, `window` un-credited buffers per
  // target set — plus headroom so control frames (which bypass the bound
  // anyway) never contend. A wedged peer then back-pressures producers at
  // the outbox instead of growing it without bound.
  std::size_t data_bound = 0;
  for (const auto& inst : instances_) {
    for (const Writer& w : inst->writers) {
      data_bound += w.targets.size() * static_cast<std::size_t>(config_.window);
    }
  }
  constexpr std::size_t kControlHeadroom = 64;
  for (auto& l : links_) {
    if (l) l->set_outbox_capacity(std::max<std::size_t>(1, data_bound) +
                                  kControlHeadroom);
  }
}

void Engine::teardown_uow() {
  for (auto& inst : instances_) {
    metrics_.instances.push_back(inst->m);
    metrics_.acks_total += inst->m.acks_sent;
    metrics_.ack_bytes_total += inst->m.acks_sent * config_.ack_bytes;
    for (std::size_t s = 0; s < inst->stream_local.size(); ++s) {
      const StreamDelta& d = inst->stream_local[s];
      auto& sm = metrics_.streams[s];
      sm.buffers += d.buffers;
      sm.payload_bytes += d.payload_bytes;
      sm.message_bytes += d.message_bytes;
    }
  }
  instances_.clear();
  copysets_.clear();
  local_.clear();
}

// ---------------------------------------------------------------------------
// Frame handling (peer-link recv threads)
// ---------------------------------------------------------------------------

void Engine::on_frame(int peer, const Frame& f) {
  if (fault_tolerant() && peer >= 0 && peer < num_ranks_) {
    // Liveness piggybacks on every frame; beacons only fill idle gaps.
    last_heard_ns_[static_cast<std::size_t>(peer)].store(
        now_ns(), std::memory_order_relaxed);
    if (rank_dead_[static_cast<std::size_t>(peer)].load(
            std::memory_order_relaxed) != 0) {
      // A declared-dead (possibly only frozen) peer spoke again. Its copy
      // sets are failed over and its windows reclaimed, so nothing here can
      // be settled — but a DD ack for a reclaimed buffer means the payload
      // was both processed there and retransmitted elsewhere: a potential
      // duplicate delivery, counted like the simulator's ack-races-failover.
      const int fs = static_cast<int>(f.header.route.stream);
      if (f.type() == FrameType::kAck && fs >= 0 &&
          fs < graph_.num_streams() &&
          core::effective_policy(config_.policy, graph_.stream(fs)) ==
              core::Policy::kDemandDriven) {
        std::lock_guard<std::mutex> flk(faults_mu_);
        faults_.buffers_duplicated++;
      }
      return;
    }
    if (f.type() == FrameType::kHeartbeat) return;
  }
  switch (f.type()) {
    case FrameType::kAbort: {
      // Aborts are per-UOW: one that refers to a UOW we already completed
      // must not leak into the next (the peer's failed UOW was our clean
      // one — both engines stay usable). One for a future UOW is honored
      // when that UOW starts.
      bool act = false;
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        const std::uint32_t uow = f.header.route.uow;
        const auto current = static_cast<std::uint32_t>(uow_index_);
        if (uow > current) {
          pending_aborts_.insert(uow);
        } else if (uow == current) {
          act = true;
        }
      }
      if (act) {
        abort_run(RunStatus::kAborted,
                  "aborted by rank " + std::to_string(peer),
                  /*broadcast=*/false);
      }
      return;
    }
    case FrameType::kDone: {
      if (fault_tolerant() && f.payload.size() >= 8) {
        // The DONE carries the sender's dead-rank bitmask: membership
        // converges at the barrier even when detection was asymmetric
        // (e.g. only one rank's monitor timed a frozen peer out so far).
        std::uint64_t mask = 0;
        const auto mask_bytes = f.payload.bytes();
        for (int i = 0; i < 8; ++i) {
          mask |= static_cast<std::uint64_t>(
                      mask_bytes[static_cast<std::size_t>(i)])
                  << (8 * i);
        }
        for (int r = 0; r < num_ranks_ && r < 64; ++r) {
          if (r == rank_ || ((mask >> r) & 1U) == 0) continue;
          on_peer_dead(r);
        }
      }
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        done_counts_[f.header.route.uow]++;
        auto& next = peer_done_next_[static_cast<std::size_t>(peer)];
        next = std::max(next, f.header.route.uow + 1);
      }
      state_cv_.notify_all();
      return;
    }
    case FrameType::kHeartbeat:
      return;  // pure liveness; meaningful only under fault tolerance
    case FrameType::kData:
    case FrameType::kCredit:
    case FrameType::kAck:
    case FrameType::kEow: {
      const char* err = nullptr;
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        const std::uint32_t uow = f.header.route.uow;
        const auto current = static_cast<std::uint32_t>(uow_index_);
        if (!built_ || uow != current) {
          // A fast peer can run at most one UOW ahead (the DONE barrier
          // separates consecutive units): stash the frame, replayed when
          // that UOW builds. Frames for a torn-down UOW (abort races) park
          // here harmlessly too. Anything further ahead violates the
          // protocol — escalate instead of buffering it without bound.
          if (uow > current + 1) {
            err = "frame for a UOW more than one ahead";
          } else if (uow >= current) {
            pending_.push_back(f);
          }
        } else {
          err = deliver_locked(f, peer);
        }
      }
      if (err != nullptr) {
        abort_run(RunStatus::kTransportError,
                  std::string(err) + " (from rank " + std::to_string(peer) +
                      ")",
                  /*broadcast=*/true);
      }
      return;
    }
    default:
      abort_run(RunStatus::kTransportError,
                "unexpected frame type from rank " + std::to_string(peer),
                /*broadcast=*/true);
      return;
  }
}

const char* Engine::deliver_locked(const Frame& f, int origin) {
  const core::BufferRoute& route = f.header.route;
  if (route.stream < 0 || route.stream >= graph_.num_streams()) {
    return "frame with bad stream id";
  }
  const core::UowPlan::Stream& srt =
      plan_.streams()[static_cast<std::size_t>(route.stream)];
  const core::StreamSpec& spec = *srt.spec;
  if (route.target < 0 || route.target >= srt.num_targets) {
    return "frame with bad target index";
  }
  CopySetRt* t = &srt.targets(copysets_)[static_cast<std::size_t>(route.target)];

  switch (f.type()) {
    case FrameType::kData: {
      if (!in_process(t->host)) return "DATA addressed to a remote copy set";
      // The frame's payload already sits in arena-leased storage (the recv
      // path read it there); adopt it as the delivered buffer.
      Delivery d;
      d.buf = f.payload;
      d.route = route;
      d.origin = origin;
      try {
        // Never blocks: capacity covers the credit windows (see build_uow).
        t->channel.push(spec.to_port, std::move(d));
      } catch (const Aborted&) {
        // UOW aborted under us; the buffer is moot.
      }
      return nullptr;
    }
    case FrameType::kEow: {
      if (!in_process(t->host)) return "EOW addressed to a remote copy set";
      if (fault_tolerant()) {
        // Exactly-once against the death settlement: a failover may already
        // have settled this producer's marker (or the frame raced death).
        auto it = t->eow_seen.find(route.stream);
        if (it == t->eow_seen.end()) return "EOW for an untracked stream";
        if (route.producer < 0 ||
            route.producer >= static_cast<int>(it->second.size())) {
          return "EOW with a bad producer index";
        }
        auto& seen = it->second[static_cast<std::size_t>(route.producer)];
        if (seen != 0) return nullptr;
        seen = 1;
      }
      t->channel.producer_eow(spec.to_port);
      return nullptr;
    }
    case FrameType::kCredit:
    case FrameType::kAck: {
      const int id = plan_.copy_id(spec.from_filter, route.producer);
      Instance* p = id < 0 ? nullptr : local_[static_cast<std::size_t>(id)];
      if (p == nullptr) return "credit/ack for a producer not on this rank";
      const bool ft = fault_tolerant();
      bool dup = false;
      {
        std::lock_guard<std::mutex> wlk(p->wmu);
        Writer& w = p->writers[static_cast<std::size_t>(spec.from_port)];
        if (f.type() == FrameType::kCredit) {
          if (ft && t->down.load(std::memory_order_relaxed)) {
            // Window release racing the failover: the reclaim already
            // zeroed this target's counters; nothing to settle.
          } else {
            w.on_dequeue(route.target);
            if (ft && core::effective_policy(config_.policy, spec) !=
                          core::Policy::kDemandDriven) {
              auto& ret = w.retained[static_cast<std::size_t>(route.target)];
              if (!ret.empty()) ret.pop_front();  // RR/WRR: consumer took it
            }
          }
        } else if (ft) {
          auto& ret = w.retained[static_cast<std::size_t>(route.target)];
          if (t->down.load(std::memory_order_relaxed) || ret.empty()) {
            dup = true;  // ack raced the failover; buffer already reclaimed
          } else {
            w.on_ack(route.target);
            ret.pop_front();  // DD: the ack is the release signal
          }
        } else {
          w.on_ack(route.target);
        }
      }
      p->wcv.notify_all();
      if (dup) {
        std::lock_guard<std::mutex> flk(faults_mu_);
        faults_.buffers_duplicated++;
      }
      return nullptr;
    }
    default:
      return "unroutable frame type";
  }
}

void Engine::on_wire_error(int peer, net::WireError err,
                           const std::string& detail) {
  if (fault_tolerant()) {
    // Under fault tolerance every wire failure — orderly close included —
    // is a membership event, not a transport error: the mesh is how this
    // engine observes peer death. A close from a peer that simply finished
    // first (post-final-UOW teardown) marks it dead harmlessly: lockstep
    // means no further UOW will need it, and its death is only charged to
    // the fault ledger if another UOW actually runs.
    on_peer_dead(peer);
    return;
  }
  if (aborted_.load(std::memory_order_relaxed)) return;  // already unwinding
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (err == net::WireError::kClosed &&
        (!running_ ||
         peer_done_next_[static_cast<std::size_t>(peer)] >
             static_cast<std::uint32_t>(uow_index_))) {
      // Orderly close: either we are between/after UOWs, or the peer has
      // already sent its DONE for the current UOW (its workers finished, so
      // every frame it will ever send has been received — TCP delivers the
      // close after them) and simply tore down before our barrier woke.
      return;
    }
  }
  abort_run(RunStatus::kTransportError, "wire error: " + detail,
            /*broadcast=*/true);
}

core::Metrics Engine::metrics() const {
  core::Metrics m = metrics_;
  std::lock_guard<std::mutex> lk(faults_mu_);
  m.faults = faults_;
  return m;
}

void Engine::on_peer_dead(int peer) {
  if (!fault_tolerant() || peer == rank_ || peer < 0 || peer >= num_ranks_) {
    return;
  }
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    auto& dead = rank_dead_[static_cast<std::size_t>(peer)];
    if (dead.load(std::memory_order_relaxed) != 0) return;  // idempotent
    dead.store(1, std::memory_order_relaxed);
    // Straddle rule: if the peer already sent DONE for the current UOW,
    // every frame it will ever send for it has been received (TCP delivers
    // the close after them) — this UOW is whole. Only membership changes;
    // the next UOW's admission pre-pass books the failover, exactly like
    // the simulator failing a host between run_uow calls.
    const bool in_current =
        built_ && running_ &&
        peer_done_next_[static_cast<std::size_t>(peer)] <=
            static_cast<std::uint32_t>(uow_index_);
    if (in_current) {
      hosts_counted_[static_cast<std::size_t>(peer)] = 1;
      {
        std::lock_guard<std::mutex> flk(faults_mu_);
        faults_.hosts_failed++;
      }
      census_.host_failed();
      for (CopySetRt& cs : copysets_) {
        if (cs.host != peer || cs.down.load(std::memory_order_relaxed)) {
          continue;
        }
        cs.down.store(true, std::memory_order_relaxed);
        fail_copyset_locked(cs);
      }
    }
  }
  state_cv_.notify_all();  // barrier predicate: dead peers need no DONE
}

void Engine::fail_copyset_locked(CopySetRt& cset) {
  {
    // Recovery latency runs from the dead rank's last frame, the wall-clock
    // analogue of the simulator's down_since, to this failover.
    const double lat =
        static_cast<double>(
            now_ns() - last_heard_ns_[static_cast<std::size_t>(cset.host)].load(
                           std::memory_order_relaxed)) *
        1e-9;
    std::lock_guard<std::mutex> flk(faults_mu_);
    core::record_failover(faults_, lat);
  }
  // Copy sets fail in plan order, so dead filters list as in the simulator.
  census_.copies_died(cset.filter, cset.num_copies);

  // Settle the dead copies' end-of-work obligations toward in-process
  // consumer sets: each was owed one marker per producer copy that has not
  // already delivered it (eow_seen makes frame vs. settlement exactly-once).
  for (const core::UowPlan::Stream& srt : plan_.streams()) {
    if (srt.spec->from_filter != cset.filter) continue;
    for (CopySetRt& t : srt.targets(copysets_)) {
      if (!in_process(t.host)) continue;
      auto it = t.eow_seen.find(srt.id);
      if (it == t.eow_seen.end()) continue;
      for (int g = cset.first_global; g < cset.first_global + cset.num_copies;
           ++g) {
        auto& seen = it->second[static_cast<std::size_t>(g)];
        if (seen != 0) continue;
        seen = 1;
        t.channel.producer_eow(srt.spec->to_port);
      }
    }
  }

  // Reclaim from every producer here that was feeding the dead set:
  // buffers sent but never dequeued are lost copies; everything retained is
  // requeued for retransmission (oldest first, ahead of fresh output), so
  // the payload still reaches a live consumer at least once.
  for (auto& inst : instances_) {
    for (std::size_t p = 0; p < inst->writers.size(); ++p) {
      Writer& w = inst->writers[p];
      for (std::size_t t = 0; t < w.targets.size(); ++t) {
        if (&w.targets[t] != &cset) continue;
        std::uint64_t lost = 0;
        std::uint64_t rexmit = 0;
        {
          std::lock_guard<std::mutex> wlk(inst->wmu);
          lost = static_cast<std::uint64_t>(w.in_flight[t]);
          auto& ret = w.retained[t];
          rexmit = ret.size();
          for (auto it = ret.rbegin(); it != ret.rend(); ++it) {
            inst->retry.push_front(
                PendingOut{static_cast<int>(p), std::move(*it)});
          }
          ret.clear();
          w.in_flight[t] = 0;
          w.unacked[t] = 0;
          inst->wcv.notify_all();  // unblocks window stalls on the dead set
        }
        if (lost + rexmit > 0) {
          std::lock_guard<std::mutex> flk(faults_mu_);
          faults_.buffers_lost += lost;
          faults_.retransmits += rexmit;
        }
      }
    }
  }
}

void Engine::abort_run(RunStatus status, const std::string& reason,
                       bool broadcast) {
  bool first = false;
  std::uint32_t uow = 0;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (status_ == RunStatus::kComplete) {
      status_ = status;
      error_ = reason;
      first = true;
    }
    // A transport error is permanent — the failed link's pump threads are
    // gone. Poison immediately so a later run call can't reset the status
    // and stall on the dead link until the barrier timeout.
    if (status == RunStatus::kTransportError) poisoned_ = true;
    aborted_.store(true, std::memory_order_relaxed);
    uow = static_cast<std::uint32_t>(uow_index_);
    if (built_) {
      // Wake everything under the respective mutexes so no blocked thread
      // misses the flag between its predicate check and its wait.
      for (CopySetRt& cs : copysets_) cs.channel.notify_abort();
      for (auto& inst : instances_) {
        std::lock_guard<std::mutex> wlk(inst->wmu);
        inst->wcv.notify_all();
      }
    }
  }
  state_cv_.notify_all();
  if (first && broadcast) {
    core::BufferRoute route;
    route.uow = uow;
    for (auto& l : links_) {
      if (l) l->send(net::make_frame(FrameType::kAbort, route));
    }
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

double Engine::run_uow() {
  const UowResult r = run_uow_outcome();
  if (r.ok()) return r.makespan;
  std::exception_ptr local;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    local = std::exchange(first_error_, nullptr);
  }
  if (local) std::rethrow_exception(local);
  throw std::runtime_error(r.error);
}

UowResult Engine::run_uow_outcome() {
  // Process-fault harness hook: a planned kill/freeze pinned to this UOW
  // index lands here, before any of this UOW's state exists.
  if (fault_cell_ != nullptr) fault_cell_->at_uow(uow_index_);

  bool abort_now = false;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (poisoned_) {
      return UowResult{status_, 0.0,
                       error_.empty() ? "engine poisoned by earlier failure"
                                      : error_,
                       {}};
    }
    status_ = RunStatus::kComplete;
    error_.clear();
    first_error_ = nullptr;
    // Honor (and prune) aborts that arrived for UOWs we had not started.
    const auto current = static_cast<std::uint32_t>(uow_index_);
    for (auto it = pending_aborts_.begin(); it != pending_aborts_.end();) {
      if (*it < current) {
        it = pending_aborts_.erase(it);
      } else {
        break;
      }
    }
    if (!pending_aborts_.empty() && *pending_aborts_.begin() == current) {
      pending_aborts_.erase(pending_aborts_.begin());
      abort_now = true;
      status_ = RunStatus::kAborted;
      error_ = "aborted by a peer before start (UOW " +
               std::to_string(current) + ")";
      ++uow_index_;
    }
  }
  if (abort_now) {
    // Every rank aborts this UOW (the originator broadcast it); skipping
    // the run keeps lockstep — nobody sends frames or DONE for it.
    UowResult r;
    r.status = RunStatus::kAborted;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      r.error = error_;
    }
    return r;
  }
  aborted_.store(false, std::memory_order_relaxed);
  if (links_.empty() && num_ranks_ > 1) start_links();

  // Fault-ledger snapshot: the outcome reports this UOW's deltas, with the
  // admission pre-pass below inside the window (the simulator counts
  // admission failovers in the UOW they gate, too).
  core::FaultMetrics faults_before;
  if (fault_tolerant()) {
    {
      std::lock_guard<std::mutex> flk(faults_mu_);
      faults_before = faults_;
    }
    std::vector<char> dead(static_cast<std::size_t>(num_ranks_), 0);
    bool any_dead = false;
    bool newly_dead = false;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      for (int r = 0; r < num_ranks_; ++r) {
        if (rank_dead_[static_cast<std::size_t>(r)].load(
                std::memory_order_relaxed) == 0) {
          continue;
        }
        dead[static_cast<std::size_t>(r)] = 1;
        any_dead = true;
        if (hosts_counted_[static_cast<std::size_t>(r)] == 0) {
          // Boundary death, charged to the cumulative ledger now that a UOW
          // actually runs without the rank. Kept out of the census:
          // the simulator's on_host_failed is gated on in_uow_, so boundary
          // deaths perturb a UOW only through their admission failovers.
          hosts_counted_[static_cast<std::size_t>(r)] = 1;
          newly_dead = true;
          std::lock_guard<std::mutex> flk(faults_mu_);
          faults_.hosts_failed++;
        }
      }
    }
    if (opts_.replace_dead && any_dead && (newly_dead || !use_effective_)) {
      // Live re-placement: move copies off dead ranks (copy counts and
      // entry order preserved, so copy-indexed state stays deterministic).
      // Every rank computes this from the same inputs — the original
      // placement and the dead set the barrier converged on.
      std::uint64_t moved = 0;
      for (int f = 0; f < graph_.num_filters(); ++f) {
        for (const auto& e : pl().entries(f)) {
          if (dead[static_cast<std::size_t>(e.host)] != 0) ++moved;
        }
      }
      effective_placement_ = core::replace_dead_hosts(
          placement_, graph_.num_filters(), num_ranks_, dead);
      use_effective_ = true;
      if (moved > 0) {
        std::lock_guard<std::mutex> flk(faults_mu_);
        faults_.failovers += moved;
      }
    }
  }

  build_uow();
  const std::uint32_t uow = static_cast<std::uint32_t>(uow_index_);
  {
    // Publish the structures, then replay frames that arrived early (a peer
    // that passed the previous barrier first may already be streaming).
    std::lock_guard<std::mutex> lk(state_mu_);
    built_ = true;
    running_ = true;
    std::vector<Frame> replay;
    replay.swap(pending_);
    for (auto& f : replay) {
      if (f.header.route.uow == uow) {
        // A stashed frame's origin rank is unknown (-2: settle_dequeue
        // recovers it from the placement), so the delivery is best-effort:
        // bounds violations surface again via live frames.
        (void)deliver_locked(f, /*origin=*/-2);
      } else if (f.header.route.uow > uow) {
        pending_.push_back(std::move(f));
      }
    }
    if (fault_tolerant()) {
      // Admission pre-pass: copy sets on ranks that died before this UOW
      // began never join — declare them up front so routing excludes them
      // from the first buffer on. Re-counted every UOW, like the simulator.
      for (CopySetRt& cs : copysets_) {
        if (in_process(cs.host) ||
            rank_dead_[static_cast<std::size_t>(cs.host)].load(
                std::memory_order_relaxed) == 0 ||
            cs.down.load(std::memory_order_relaxed)) {
          continue;
        }
        cs.down.store(true, std::memory_order_relaxed);
        fail_copyset_locked(cs);
      }
    }
  }

  const auto t0 = Clock::now();
  for (auto& inst : instances_) inst->ctx->epoch = t0;

  std::vector<std::thread> threads;
  threads.reserve(instances_.size());
  for (auto& inst : instances_) {
    Instance* p = inst.get();
    threads.emplace_back([this, p] {
      try {
        worker_main(*p);
      } catch (const Aborted&) {
        // Another thread (or an ABORT frame) failed the UOW; unwound clean.
      } catch (...) {
        std::string what = "unknown exception";
        try {
          throw;
        } catch (const std::exception& e) {
          what = e.what();
        } catch (...) {
        }
        {
          std::lock_guard<std::mutex> lk(state_mu_);
          if (!first_error_) first_error_ = std::current_exception();
        }
        abort_run(RunStatus::kAborted, "filter error: " + what,
                  /*broadcast=*/true);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Completion barrier: announce our DONE, wait for every peer's. Peers'
  // CREDIT/ACK frames for our producers may still arrive during the wait
  // (their consumers can lag); the structures stay live until after it.
  const bool ft = fault_tolerant();
  if (num_ranks_ > 1 && !aborted_.load(std::memory_order_relaxed)) {
    core::BufferRoute route;
    route.uow = uow;
    Frame done;
    if (ft) {
      // Piggyback this rank's view of the dead set on the DONE (64-bit LE
      // bitmask): peers that never saw the failed rank's close converge on
      // the same membership at the same barrier.
      std::uint64_t mask = 0;
      for (int r = 0; r < num_ranks_ && r < 64; ++r) {
        if (rank_dead_[static_cast<std::size_t>(r)].load(
                std::memory_order_relaxed) != 0) {
          mask |= (std::uint64_t{1} << r);
        }
      }
      std::vector<std::byte> payload(8);
      for (int i = 0; i < 8; ++i) {
        payload[static_cast<std::size_t>(i)] =
            static_cast<std::byte>((mask >> (8 * i)) & 0xff);
      }
      done = net::make_frame(FrameType::kDone, route, std::move(payload));
    } else {
      done = net::make_frame(FrameType::kDone, route);
    }
    for (auto& l : links_) {
      if (l) l->send(done);
    }
    if (ft) {
      // Flush fence: once the DONE hits the kernel, TCP orders it ahead of
      // any later close — even a SIGKILL-induced FIN. That pins "died after
      // finishing UOW k" vs "died during UOW k" deterministically, which
      // the kill-at-UOW-entry fault tests rely on.
      for (auto& l : links_) {
        if (l) l->wait_flushed(opts_.barrier_timeout_s);
      }
    }
    bool timed_out = false;
    {
      std::unique_lock<std::mutex> lk(state_mu_);
      const auto deadline =
          Clock::now() + std::chrono::duration<double>(opts_.barrier_timeout_s);
      timed_out = !state_cv_.wait_until(lk, deadline, [&] {
        if (aborted_.load(std::memory_order_relaxed)) return true;
        if (!ft) return done_counts_[uow] >= num_ranks_ - 1;
        for (int r = 0; r < num_ranks_; ++r) {
          if (r == rank_) continue;
          if (peer_done_next_[static_cast<std::size_t>(r)] > uow) continue;
          if (rank_dead_[static_cast<std::size_t>(r)].load(
                  std::memory_order_relaxed) != 0) {
            continue;
          }
          return false;
        }
        return true;
      });
    }
    if (timed_out) {
      abort_run(RunStatus::kTransportError,
                "completion barrier timed out after " +
                    std::to_string(opts_.barrier_timeout_s) + "s",
                /*broadcast=*/true);
    }
  }

  const double makespan = seconds_since(t0);
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    built_ = false;
    running_ = false;
    done_counts_.erase(uow);
    // The peer-link recv threads read uow_index_ under state_mu_ (frame
    // stashing, orderly-close classification); advance it under the same
    // lock. Workers only read it between their fork and join, so the
    // unlocked reads on their threads stay race-free.
    ++uow_index_;
    metrics_.makespan = makespan;
  }
  teardown_uow();

  UowResult r;
  r.makespan = makespan;
  r.outcome.makespan = makespan;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    r.status = status_;
    r.error = error_;
    // Only transport-plane failures poison the engine: the mesh (or a
    // peer's runtime state) is unrecoverable. An app-level abort (filter
    // exception, explicit ABORT) ends this UOW in lockstep but leaves the
    // links healthy — the next UOW runs normally.
    if (r.status == RunStatus::kTransportError) {
      poisoned_ = true;
    } else if (ft) {
      std::lock_guard<std::mutex> flk(faults_mu_);
      r.outcome = census_.outcome(faults_before, faults_, makespan);
    }
  }
  return r;
}

void Engine::worker_main(Instance& inst) {
  ContextImpl& ctx = *inst.ctx;
  obs::Track* tk = obs_track(inst);

  inst.in_init = true;
  auto t0 = Clock::now();
  {
    obs::ScopedSpan span(obs_, tk, "init");
    inst.user->init(ctx);
  }
  inst.m.busy_time += seconds_since(t0);
  inst.in_init = false;

  if (graph_.filter(inst.filter).is_source) {
    source_loop(inst, ctx);
  } else {
    consume_loop(inst, ctx);
  }

  t0 = Clock::now();
  {
    obs::ScopedSpan span(obs_, tk, "eow");
    inst.user->process_eow(ctx);
  }
  inst.m.busy_time += seconds_since(t0);
  drain(inst);

  if (fault_tolerant()) {
    // Retention settlement: every retained buffer must be released (peer
    // credit/ack arrives) or reclaimed-and-retransmitted (peer dies, the
    // monitor or a wire error requeues it) before this producer declares
    // EOW — otherwise a death after our EOW would strand data no one will
    // resend. Deadlock-free: consumers drain independently of our EOW, so
    // the credits this wait needs are never gated on it.
    const auto deadline =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(opts_.barrier_timeout_s));
    for (;;) {
      drain(inst);  // flushes buffers reclaimed from a dead target
      std::unique_lock<std::mutex> lk(inst.wmu);
      const auto settled = [&] {
        if (!inst.retry.empty()) return false;
        for (const auto& w : inst.writers) {
          for (const auto& ret : w.retained) {
            if (!ret.empty()) return false;
          }
        }
        return true;
      };
      if (settled()) break;
      const bool woke = inst.wcv.wait_until(lk, deadline, [&] {
        return aborted_.load(std::memory_order_relaxed) ||
               !inst.retry.empty() || settled();
      });
      if (aborted_.load(std::memory_order_relaxed)) throw Aborted{};
      if (!woke) {
        lk.unlock();
        abort_run(RunStatus::kTransportError,
                  "retention settlement timed out after " +
                      std::to_string(opts_.barrier_timeout_s) + "s",
                  /*broadcast=*/true);
        throw Aborted{};
      }
    }
  }

  // Like the simulator, finalize() runs after the last drain; anything it
  // writes is not dispatched in either engine.
  t0 = Clock::now();
  {
    obs::ScopedSpan span(obs_, tk, "finalize");
    inst.user->finalize(ctx);
  }
  inst.m.busy_time += seconds_since(t0);

  // End-of-work markers to every consumer copy set, after all data buffers:
  // in-process, the channel mutex serializes them behind this copy's
  // pushes; remote EOW frames share the per-peer FIFO with this copy's DATA
  // frames, so markers cannot overtake data on the wire either.
  for (auto& w : inst.writers) {
    const int in_port = w.stream->spec->to_port;
    for (std::size_t ti = 0; ti < w.targets.size(); ++ti) {
      CopySetRt& t = w.targets[ti];
      if (in_process(t.host)) {
        t.channel.producer_eow(in_port);
      } else {
        core::BufferRoute route;
        route.stream = w.stream->id;
        route.producer = inst.index;
        route.target = static_cast<std::int32_t>(ti);
        route.uow = static_cast<std::uint32_t>(uow_index_);
        links_[static_cast<std::size_t>(t.host)]->send(
            net::make_frame(FrameType::kEow, route));
      }
    }
  }
}

void Engine::source_loop(Instance& inst, ContextImpl& ctx) {
  auto* src = static_cast<core::SourceFilter*>(inst.user.get());
  obs::Track* tk = obs_track(inst);
  bool more = true;
  while (more) {
    const auto t0 = Clock::now();
    {
      obs::ScopedSpan span(obs_, tk, "step");
      more = src->step(ctx);
    }
    inst.m.busy_time += seconds_since(t0);
    drain(inst);
  }
}

void Engine::consume_loop(Instance& inst, ContextImpl& ctx) {
  PortChannel<Delivery>& channel = inst.cset->channel;
  obs::Track* tk = obs_track(inst);
  const bool tracing = tk != nullptr && obs_->enabled();
  for (;;) {
    Delivery d;
    int port = -1;
    double waited = 0.0;
    // One queue.wait span per pop, emitted even for instant pops so the
    // span COUNT is deterministic (goldens compare counts and order, never
    // durations).
    if (tracing) tk->begin(obs_->now(), "queue.wait");
    const auto pop = channel.pop(d, port, waited);
    if (tracing) tk->end(obs_->now(), "queue.wait");
    inst.m.queue_wait_time += waited;
    // kEow is sticky (every pop after drain reports it); treating it as
    // terminal here is what keeps the per-copy process_eow single-shot.
    if (pop == PortChannel<Delivery>::Pop::kEow) return;
    inst.m.buffers_in++;
    inst.m.bytes_in += d.buf.size();
    if (tracing) {
      tk->instant(obs_->now(), "consume",
                  static_cast<std::int64_t>(d.buf.size()), port);
    }

    // Receiver-side dequeue frees the producer's flow-control slot; under DD
    // it also acknowledges (in-process the ack is a direct state update —
    // the counters match the simulator, which models it as a message).
    const bool dd =
        core::effective_policy(
            config_.policy,
            graph_.stream(static_cast<int>(d.route.stream))) ==
        core::Policy::kDemandDriven;
    settle_dequeue(d, dd);
    if (dd) {
      inst.m.acks_sent++;
      if (tracing) {
        tk->instant(obs_->now(), "dd.ack",
                    static_cast<std::int64_t>(config_.ack_bytes),
                    d.route.target);
      }
    }

    const auto t0 = Clock::now();
    {
      obs::ScopedSpan span(obs_, tk, "process", port);
      inst.user->process_buffer(ctx, port, d.buf);
    }
    inst.m.busy_time += seconds_since(t0);
    drain(inst);
  }
}

void Engine::settle_dequeue(const Delivery& d, bool dd) {
  if (d.origin == rank_) {
    // In-process producer: settle its WriterState directly.
    const core::StreamSpec& spec = graph_.stream(d.route.stream);
    Instance* producer = local_[static_cast<std::size_t>(
        plan_.copy_id(spec.from_filter, d.route.producer))];
    assert(producer != nullptr);
    {
      std::lock_guard<std::mutex> lk(producer->wmu);
      Writer& w = producer->writers[static_cast<std::size_t>(spec.from_port)];
      w.on_dequeue(d.route.target);
      if (dd) w.on_ack(d.route.target);
      if (fault_tolerant()) {
        // Settlement releases retention at the same point the frame
        // protocols would: dequeue for RR/WRR, ack for DD (here the two
        // coincide — an in-process dequeue IS the demand ack).
        auto& ret = w.retained[static_cast<std::size_t>(d.route.target)];
        if (!ret.empty()) ret.pop_front();
      }
    }
    producer->wcv.notify_all();
    return;
  }
  // Remote producer: the dequeue credit (and, under DD, the demand ack)
  // travel back as frames. origin -2 marks a replayed stash whose sender is
  // its producer's rank — recover it from the plan via the route.
  int origin = d.origin;
  if (origin < 0) {
    const int id = plan_.copy_id(graph_.stream(d.route.stream).from_filter,
                                 d.route.producer);
    if (id >= 0) origin = plan_.copies()[static_cast<std::size_t>(id)].host;
  }
  if (origin < 0 || origin == rank_ || origin >= num_ranks_) return;
  net::PeerLink* link = links_[static_cast<std::size_t>(origin)].get();
  if (link == nullptr) return;
  link->send(net::make_frame(FrameType::kCredit, d.route));
  if (dd) link->send(net::make_frame(FrameType::kAck, d.route));
}

void Engine::drain(Instance& inst) {
  if (fault_tolerant()) {
    // Reclaimed buffers first (oldest-first, ahead of new output): the
    // retry queue is refilled by fail_copyset_locked when a target dies,
    // possibly while we are dispatching — loop until it stays empty.
    for (;;) {
      PendingOut out;
      {
        std::lock_guard<std::mutex> lk(inst.wmu);
        if (inst.retry.empty()) break;
        out = std::move(inst.retry.front());
        inst.retry.pop_front();
      }
      dispatch(inst, out.port, std::move(out.buf));
    }
  }
  while (!inst.pending.empty()) {
    PendingOut out = std::move(inst.pending.front());
    inst.pending.pop_front();
    dispatch(inst, out.port, std::move(out.buf));
  }
}

void Engine::dispatch(Instance& inst, int port, core::Buffer buf) {
  Writer& w = inst.writers[static_cast<std::size_t>(port)];
  obs::Track* tk = obs_track(inst);
  const bool ft = fault_tolerant();
  const core::Policy policy =
      core::effective_policy(config_.policy, *w.stream->spec);
  const int win = w.window;
  const int key = buf.route_key();
  const auto local = [&](int t) {
    return w.targets[static_cast<std::size_t>(t)].host == inst.host;
  };
  const auto dead = [&](int t) {
    return ft && w.targets[static_cast<std::size_t>(t)].down.load(
                     std::memory_order_relaxed);
  };
  const auto any_live = [&] {
    for (std::size_t t = 0; t < w.targets.size(); ++t) {
      if (!dead(static_cast<int>(t))) return true;
    }
    return false;
  };

  int target = -1;
  {
    std::unique_lock<std::mutex> lk(inst.wmu);
    if (ft && !any_live()) {
      // Every consumer copy set is on a dead rank: nowhere to deliver.
      // Count the drop and move on (the simulator's all-targets-dead path).
      lk.unlock();
      std::lock_guard<std::mutex> flk(faults_mu_);
      faults_.buffers_lost++;
      return;
    }
    target = w.pick(policy, win, w.stream->wrr_order, dead, local, key);
    if (target < 0) {
      // Window stall: the slot frees on an in-process dequeue, a CREDIT/ACK
      // frame from a remote consumer, or a dead target's reclamation —
      // every path notifies wcv. pick() mutates rr_next only on success, so
      // retrying it is safe.
      const auto t0 = Clock::now();
      bool all_dead = false;
      bool timed_out = false;
      const auto pred = [&] {
        if (aborted_.load(std::memory_order_relaxed)) return true;
        if (ft && !any_live()) {
          all_dead = true;
          return true;
        }
        target = w.pick(policy, win, w.stream->wrr_order, dead, local, key);
        return target >= 0;
      };
      if (ft) {
        // Under fault tolerance a stall can also mean the consumer died
        // mid-window and detection is pending — bound the wait so a
        // detector failure cannot wedge the worker forever.
        timed_out = !inst.wcv.wait_until(
            lk,
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(opts_.barrier_timeout_s)),
            pred);
      } else {
        inst.wcv.wait(lk, pred);
      }
      const double stalled = seconds_since(t0);
      inst.m.stall_time += stalled;
      net_metrics_.record_credit_stall(
          static_cast<std::uint64_t>(stalled * 1e6));
      if (obs_ != nullptr && obs_->enabled()) {
        // Window stall: timing-dependent, excluded from golden traces.
        if (tk != nullptr) {
          tk->begin(obs_->seconds(t0), "stall");
          tk->end(obs_->now(), "stall");
        }
        if (net_track_ != nullptr) {
          net_track_->instant(obs_->now(), "credit.stall", w.stream->id,
                              static_cast<std::int64_t>(stalled * 1e6));
        }
      }
      if (aborted_.load(std::memory_order_relaxed)) throw Aborted{};
      if (timed_out) {
        lk.unlock();
        abort_run(RunStatus::kTransportError,
                  "credit stall exceeded " +
                      std::to_string(opts_.barrier_timeout_s) + "s",
                  /*broadcast=*/true);
        throw Aborted{};
      }
      if (all_dead) {
        lk.unlock();
        std::lock_guard<std::mutex> flk(faults_mu_);
        faults_.buffers_lost++;
        return;
      }
    }
    w.on_dispatch(target);
    if (ft) {
      // Retain until released (credit/ack) or reclaimed (target death):
      // core::Buffer is a shared envelope, so this is a refcount, not a
      // copy of the payload.
      w.retained[static_cast<std::size_t>(target)].push_back(buf);
    }
    if (tk != nullptr && obs_->enabled()) {
      // Routing decision: chosen target plus the policy's outstanding count
      // for it (unacked under DD, in-flight under RR/WRR) after the dispatch.
      const auto& counts = policy == core::Policy::kDemandDriven
                               ? w.unacked
                               : w.in_flight;
      tk->instant(obs_->now(), "policy.pick", target,
                  counts[static_cast<std::size_t>(target)]);
    }
  }

  StreamDelta& sd = inst.stream_local[static_cast<std::size_t>(w.stream->id)];
  sd.buffers++;
  sd.payload_bytes += buf.size();
  sd.message_bytes += buf.size() + config_.header_bytes;
  inst.m.buffers_out++;
  inst.m.bytes_out += buf.size();

  core::BufferRoute route;
  route.stream = w.stream->id;
  route.producer = inst.index;
  route.target = target;
  route.uow = static_cast<std::uint32_t>(uow_index_);

  CopySetRt* cset = &w.targets[static_cast<std::size_t>(target)];
  if (in_process(cset->host)) {
    Delivery d;
    d.buf = std::move(buf);
    d.route = route;
    d.origin = rank_;
    // Bounded push: capacity backpressure beyond the writer windows.
    const double pushed =
        cset->channel.push(w.stream->spec->to_port, std::move(d));
    inst.m.stall_time += pushed;
    if (pushed > 0.0 && tk != nullptr && obs_->enabled()) {
      // Channel backpressure: timing-dependent, excluded from golden traces.
      tk->instant(obs_->now(), "push.wait",
                  static_cast<std::int64_t>(pushed * 1e6));
    }
  } else {
    // Zero-copy: the frame shares the producer's buffer storage; the send
    // pump's scatter-gather write reads it in place.
    const std::uint64_t nbytes = buf.size();
    links_[static_cast<std::size_t>(cset->host)]->send(
        net::make_frame(FrameType::kData, route, std::move(buf)));
    if (fault_cell_ != nullptr) {
      fault_cell_->advance(net::FaultTrigger::kFrames, 1);
      fault_cell_->advance(net::FaultTrigger::kBytes, nbytes);
    }
  }
  if (fault_cell_ != nullptr) {
    fault_cell_->advance(net::FaultTrigger::kBuffers, 1);
  }
}

}  // namespace dc::exec
