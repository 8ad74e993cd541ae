#include "core/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/writer_state.hpp"

namespace dc::core {

void validate(const RuntimeConfig& config) {
  if (config.window <= 0) {
    throw std::invalid_argument("RuntimeConfig: window must be positive");
  }
  if (config.default_buffer_bytes == 0) {
    throw std::invalid_argument(
        "RuntimeConfig: default_buffer_bytes must be nonzero");
  }
  if (config.detection == FailureDetection::kAckTimeout) {
    if (config.policy != Policy::kDemandDriven) {
      throw std::invalid_argument(
          "RuntimeConfig: ack-timeout detection needs the demand-driven "
          "policy (RR/WRR have no acks; use kMembership)");
    }
    if (config.ack_timeout <= 0.0 || config.ack_timeout_backoff < 1.0 ||
        config.ack_timeout_max < config.ack_timeout ||
        config.ack_timeout_strikes < 1) {
      throw std::invalid_argument("RuntimeConfig: bad ack-timeout parameters");
    }
  }
}

// ---------------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------------

/// A buffer in flight / queued at a consumer copy set, with enough envelope
/// to credit the producer's window and send DD acknowledgments.
struct Runtime::Delivery {
  Buffer buf;
  Instance* producer = nullptr;
  int out_port = 0;
  int target = 0;  ///< index of the receiving copy set among the stream targets
};

/// All transparent copies of one filter on one host share input queues; a
/// buffer arriving at the copy set is processed by whichever copy idles
/// first (demand-based balance within a host, paper Section 2).
struct Runtime::CopySet : UowPlan::CopySet {
  std::vector<Instance*> copies;
  std::vector<std::deque<Delivery>> queues;  ///< one per input port
  std::vector<int> eow_pending;              ///< producer copies yet to EOW, per port
  int rr_port = 0;                           ///< fair rotation across ports

  // Fault state. `down` is ground truth (the host crashed, set by the
  // membership callback); `declared_dead` is the routing decision (set at
  // failover — by the membership sweep, or by ack-timeout detection, which
  // may also fence an unreachable-but-alive copy set).
  bool down = false;
  bool declared_dead = false;
  sim::SimTime down_since = -1.0;
  sim::SimTime suspected_since = -1.0;

  [[nodiscard]] bool all_eow() const {
    for (int e : eow_pending) {
      if (e > 0) return false;
    }
    return true;
  }
};

/// Writer-side state of one producer copy for one output port: the shared
/// flow-control / policy state machine plus the simulator-only stream
/// binding and fault-tolerance retention.
struct SimWriter : WriterState {
  const UowPlan::Stream* stream = nullptr;
  std::span<Runtime::CopySet> targets;  ///< the stream's consumer copy sets

  /// Per-target fault-tolerance state (sized only when detection != kNone).
  /// `outstanding` retains a copy of every dispatched buffer until the
  /// consumer takes responsibility for it — dequeue for RR/WRR, ack for DD.
  /// Retention is cheap: Buffer payloads are shared and immutable. The
  /// deque is FIFO because per-target deliveries (and thus their releases /
  /// acks) travel FIFO links.
  struct TargetFt {
    std::deque<Buffer> outstanding;
    sim::EventId timer = 0;        ///< armed ack-progress timer (DD)
    int strikes = 0;               ///< consecutive silent timeouts
    std::uint64_t acks_seen = 0;   ///< progress counter for timer snapshots
  };
  std::vector<TargetFt> ft;
};

struct PendingOut {
  int port;
  Buffer buf;
};

struct DiskDemand {
  int disk;
  std::uint64_t bytes;
};

/// One transparent copy of a filter for the current UOW.
struct Runtime::Instance : UowPlan::Copy {
  enum class State { kCreated, kInit, kIdle, kBusy, kDraining, kFinished };

  CopySet* cset = nullptr;
  std::unique_ptr<Filter> user;
  std::vector<SimWriter> writers;  ///< per output port

  State state = State::kCreated;
  bool dead = false;  ///< crashed with its host, or fenced after a failover
  bool eow_executed = false;
  bool source_exhausted = false;
  std::deque<PendingOut> pending;

  // Per-callback accumulators, reset before each user callback.
  double charged_ops = 0.0;
  std::vector<DiskDemand> disk_demands;
  bool in_init = false;

  InstanceMetrics m;
  sim::SimTime busy_start = 0.0;
  sim::SimTime drain_start = 0.0;
  obs::Track* otrack = nullptr;  ///< lazily bound by Runtime::obs_track

  std::unique_ptr<ContextImpl> ctx;
};

/// FilterContext implementation bound to one Instance.
struct Runtime::ContextImpl final : PlanContext {
  ContextImpl(Runtime& runtime, Instance& instance)
      : PlanContext(runtime.plan_, instance), rt(&runtime), inst(&instance) {}

  Runtime* rt;
  Instance* inst;

  [[nodiscard]] sim::SimTime now() const override {
    return rt->topo_.sim().now();
  }

  void charge(double ops) override {
    if (ops < 0.0) throw std::invalid_argument("charge: negative ops");
    inst->charged_ops += ops;
  }

  void read_disk(int local_disk, std::uint64_t bytes) override {
    if (!is_source()) {
      throw std::logic_error("read_disk is only available to source filters");
    }
    auto& host = rt->topo_.host(inst->host);
    if (local_disk < 0 || local_disk >= host.num_disks()) {
      throw std::out_of_range("read_disk: no such local disk");
    }
    inst->disk_demands.push_back(DiskDemand{local_disk, bytes});
    inst->m.disk_bytes += bytes;
  }

  void write(int port, Buffer buf) override {
    if (inst->in_init) {
      throw std::logic_error("write() is not allowed in init()");
    }
    if (port < 0 || port >= num_output_ports()) {
      throw std::out_of_range("write: bad output port");
    }
    inst->pending.push_back(PendingOut{port, std::move(buf)});
  }

  [[nodiscard]] Buffer make_buffer(int port) const override {
    return Buffer(buffer_bytes(port));
  }
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Runtime::Runtime(sim::Topology& topo, const Graph& graph,
                 const Placement& placement, RuntimeConfig config)
    : topo_(topo),
      graph_(graph),
      placement_(placement),
      config_(std::move(config)),
      base_rng_(config_.rng_seed) {
  validate(graph_, placement_);
  validate(config_);
  for (int f = 0; f < graph_.num_filters(); ++f) {
    for (const auto& e : placement_.entries(f)) {
      if (e.host >= topo_.size()) {
        throw std::invalid_argument("Runtime: placement host out of range");
      }
    }
  }
  for (int h = 0; h < topo_.size(); ++h) {
    host_classes_.push_back(topo_.host(h).host_class());
  }
  if (fault_tolerant()) {
    failure_listener_ =
        topo_.add_host_failure_listener([this](int h) { on_host_failed(h); });
    partition_listener_ = topo_.add_partition_listener(
        [this](int h, bool p) { on_host_partitioned(h, p); });
  }
  // Stream metrics slots.
  metrics_.streams.resize(static_cast<std::size_t>(graph_.num_streams()));
  for (int s = 0; s < graph_.num_streams(); ++s) {
    metrics_.streams[static_cast<std::size_t>(s)].name = graph_.stream(s).name;
  }
}

Runtime::~Runtime() {
  if (failure_listener_ != 0) topo_.remove_listener(failure_listener_);
  if (partition_listener_ != 0) topo_.remove_listener(partition_listener_);
}

void Runtime::emit_trace(const char* tag, const Instance& inst,
                         const std::string& detail) {
  if (!trace_.enabled()) return;
  trace_.emit(topo_.sim().now(), tag,
              graph_.filter(inst.filter).name + "#" +
                  std::to_string(inst.index) + "@h" +
                  std::to_string(inst.host) +
                  (detail.empty() ? "" : " " + detail));
}

obs::Track* Runtime::obs_track(Instance& inst) {
  if (obs_ == nullptr) return nullptr;
  if (inst.otrack == nullptr) {
    inst.otrack = &obs_->track("sim:" + graph_.filter(inst.filter).name + "#" +
                               std::to_string(inst.index) + "@h" +
                               std::to_string(inst.host));
  }
  return inst.otrack;
}

void Runtime::reset_metrics() {
  metrics_.instances.clear();
  metrics_.acks_total = 0;
  metrics_.ack_bytes_total = 0;
  metrics_.makespan = 0.0;
  metrics_.faults.reset();
  for (auto& s : metrics_.streams) {
    s.buffers = 0;
    s.payload_bytes = 0;
    s.message_bytes = 0;
  }
}

// ---------------------------------------------------------------------------
// UOW setup / teardown
// ---------------------------------------------------------------------------

void Runtime::build_uow() {
  plan_ = UowPlan(graph_, placement_, config_, host_classes_, uow_index_,
                  base_rng_);
  for (const UowPlan::CopySet& planned : plan_.copysets()) {
    CopySet& cs = copysets_.emplace_back(planned);
    const int in_ports = graph_.filter(planned.filter).num_input_ports;
    cs.queues.resize(static_cast<std::size_t>(in_ports));
    cs.eow_pending.resize(static_cast<std::size_t>(in_ports), 0);
  }
  // EOW bookkeeping: each consumer port expects one marker per producer copy.
  for (const UowPlan::Stream& s : plan_.streams()) {
    for (CopySet& t : s.targets(copysets_)) {
      t.eow_pending[static_cast<std::size_t>(s.spec->to_port)] = s.producers;
    }
  }

  for (const UowPlan::Copy& copy : plan_.copies()) {
    auto inst = std::make_unique<Instance>(copy);
    inst->cset = &copysets_[static_cast<std::size_t>(copy.copyset)];
    inst->user = plan_.instantiate(copy);
    inst->writers.resize(
        static_cast<std::size_t>(graph_.filter(copy.filter).num_output_ports));
    for (std::size_t port = 0; port < inst->writers.size(); ++port) {
      SimWriter& w = inst->writers[port];
      w.stream = &plan_.out_stream(copy.filter, static_cast<int>(port));
      w.targets = w.stream->targets(copysets_);
      w.reset(w.targets.size());
      if (fault_tolerant()) w.ft.resize(w.targets.size());
    }
    inst->m = copy.ledger();
    inst->ctx = std::make_unique<ContextImpl>(*this, *inst);
    inst->cset->copies.push_back(inst.get());
    instances_.push_back(std::move(inst));
  }
  remaining_instances_ = static_cast<int>(instances_.size());
  census_.reset(plan_);
}

void Runtime::teardown_uow() {
  for (auto& inst : instances_) {
    metrics_.instances.push_back(inst->m);
  }
  instances_.clear();
  copysets_.clear();
}

sim::SimTime Runtime::run_uow() { return run_uow_outcome().makespan; }

UowOutcome Runtime::run_uow_outcome() {
  if (!failure_.empty()) {
    throw std::logic_error("Runtime: unusable after a failed UOW (" +
                           failure_ + ")");
  }
  try {
    return run_uow_unguarded();
  } catch (const std::exception& e) {
    failure_ = "UOW " + std::to_string(uow_index_) + ": " + e.what();
    throw;
  } catch (...) {
    failure_ = "UOW " + std::to_string(uow_index_) + ": unknown exception";
    throw;
  }
}

UowOutcome Runtime::run_uow_unguarded() {
  auto& sim = topo_.sim();
  const sim::SimTime t0 = sim.now();
  const FaultMetrics faults_before = metrics_.faults;
  build_uow();
  in_uow_ = true;

  // Hosts that died before this UOW began: their copies never join. The
  // copy sets are declared dead up front (stale members are known at UOW
  // admission), so routing excludes them from the first buffer on.
  if (fault_tolerant()) {
    for (CopySet& cs : copysets_) {
      if (topo_.host(cs.host).alive() || cs.down) continue;
      cs.down = true;
      cs.down_since = sim.now();
      for (Instance* c : cs.copies) kill_instance(*c);
      fail_copyset(cs);
    }
  }

  for (auto& inst : instances_) {
    if (!inst->dead) start_instance(*inst);
  }
  const std::uint64_t event_limit = sim.events_fired() + config_.max_events_per_uow;
  while (remaining_instances_ > 0 && sim.step()) {
    if (sim.events_fired() > event_limit) {
      throw std::runtime_error(
          "Runtime: UOW exceeded max_events_per_uow (livelock?) at t=" +
          std::to_string(sim.now()));
    }
  }
  if (remaining_instances_ > 0) {
    throw std::runtime_error(
        "Runtime: UOW deadlocked (no events, instances pending)" +
        std::string(fault_tolerant()
                        ? ""
                        : " — a fault without RuntimeConfig::detection?"));
  }
  const sim::SimTime makespan = uow_done_at_ - t0;
  metrics_.makespan = makespan;
  // Disarm any surviving failure-detection timers, then drain stragglers
  // (acks / markers still in flight) so the virtual clock is quiescent
  // before the next UOW.
  for (auto& inst : instances_) cancel_ack_timers(*inst);
  sim.run();
  in_uow_ = false;

  const UowOutcome out =
      census_.outcome(faults_before, metrics_.faults, makespan);
  teardown_uow();
  ++uow_index_;
  return out;
}

// ---------------------------------------------------------------------------
// Instance lifecycle
// ---------------------------------------------------------------------------

void Runtime::start_instance(Instance& inst) {
  inst.state = Instance::State::kInit;
  inst.in_init = true;
  inst.charged_ops = 0.0;
  inst.user->init(*inst.ctx);
  inst.in_init = false;
  const double ops = inst.charged_ops;
  inst.m.work_ops += ops;
  inst.busy_start = topo_.sim().now();
  topo_.host(inst.host).cpu().submit(ops, [this, &inst] {
    inst.m.busy_time += topo_.sim().now() - inst.busy_start;
    if (auto* tk = obs_track(inst)) {
      // Spans are reconstructed at completion: the simulator knows a job's
      // start only after its virtual retirement, so emit B then E back to
      // back with the recorded virtual timestamps.
      tk->begin(inst.busy_start, "init");
      tk->end(topo_.sim().now(), "init");
    }
    on_init_done(inst);
  });
}

void Runtime::on_init_done(Instance& inst) {
  if (inst.dead) return;
  inst.state = Instance::State::kIdle;
  if (graph_.filter(inst.filter).is_source) {
    source_step(inst);
  } else {
    try_consume(inst);
  }
}

void Runtime::source_step(Instance& inst) {
  if (inst.dead) return;
  if (inst.state != Instance::State::kIdle) return;
  if (inst.source_exhausted) {
    begin_eow(inst);
    return;
  }
  auto* src = static_cast<SourceFilter*>(inst.user.get());
  inst.charged_ops = 0.0;
  inst.disk_demands.clear();
  inst.state = Instance::State::kBusy;
  const bool more = src->step(*inst.ctx);
  inst.source_exhausted = !more;
  run_source_io_then_compute(inst);
}

void Runtime::run_source_io_then_compute(Instance& inst) {
  if (inst.disk_demands.empty()) {
    submit_compute(inst);
    return;
  }
  // Issue all declared reads concurrently; compute starts when the last one
  // completes (per-disk FIFO serializes same-disk requests).
  auto remaining = std::make_shared<int>(static_cast<int>(inst.disk_demands.size()));
  auto& host = topo_.host(inst.host);
  for (const auto& d : inst.disk_demands) {
    host.disk(d.disk).read(d.bytes, [this, &inst, remaining] {
      if (--*remaining == 0) submit_compute(inst);
    });
  }
  inst.disk_demands.clear();
}

void Runtime::submit_compute(Instance& inst) {
  if (inst.dead) return;  // e.g. a disk read completing after the host died
  const double ops = inst.charged_ops;
  inst.charged_ops = 0.0;
  inst.m.work_ops += ops;
  inst.busy_start = topo_.sim().now();
  topo_.host(inst.host).cpu().submit(ops, [this, &inst] { on_compute_done(inst); });
}

void Runtime::try_consume(Instance& inst) {
  if (inst.dead) return;
  if (inst.state != Instance::State::kIdle) return;
  CopySet& cset = *inst.cset;
  const int ports = static_cast<int>(cset.queues.size());

  // Find the next non-empty port, rotating for fairness across ports.
  int port = -1;
  for (int i = 0; i < ports; ++i) {
    const int p = (cset.rr_port + i) % ports;
    if (!cset.queues[static_cast<std::size_t>(p)].empty()) {
      port = p;
      break;
    }
  }

  if (port < 0) {
    if (ports >= 0 && cset.all_eow() && !inst.eow_executed) {
      begin_eow(inst);
    }
    return;
  }
  cset.rr_port = (port + 1) % ports;

  Delivery d = std::move(cset.queues[static_cast<std::size_t>(port)].front());
  cset.queues[static_cast<std::size_t>(port)].pop_front();

  inst.state = Instance::State::kBusy;  // guard against reentrant wakeups
  inst.m.buffers_in++;
  inst.m.bytes_in += d.buf.size();
  emit_trace("consume", inst, std::to_string(d.buf.size()) + "B");
  if (auto* tk = obs_track(inst)) {
    tk->instant(topo_.sim().now(), "consume",
                static_cast<std::int64_t>(d.buf.size()), port);
  }

  // Receiver-side dequeue frees the producer's flow-control slot.
  on_window_release(*d.producer, d.out_port, d.target);

  // Demand-driven: acknowledge that the buffer is now being processed. The
  // ack is a real message and costs network time (paper Section 2). Gated on
  // the delivered stream's effective policy so per-stream overrides (the
  // compositor's tile-owner fragment stream) do not generate stray acks.
  const StreamSpec& dspec =
      *d.producer->writers[static_cast<std::size_t>(d.out_port)].stream->spec;
  if (effective_policy(config_.policy, dspec) == Policy::kDemandDriven) {
    Instance* producer = d.producer;
    const int out_port = d.out_port;
    const int target = d.target;
    inst.m.acks_sent++;
    metrics_.acks_total++;
    metrics_.ack_bytes_total += config_.ack_bytes;
    if (auto* tk = obs_track(inst)) {
      tk->instant(topo_.sim().now(), "dd.ack",
                  static_cast<std::int64_t>(config_.ack_bytes), target);
    }
    topo_.network().send(cset.host, producer->host, config_.ack_bytes,
                         [this, producer, out_port, target] {
                           on_ack(*producer, out_port, target);
                         });
  }

  inst.charged_ops = 0.0;
  inst.user->process_buffer(*inst.ctx, port, d.buf);
  submit_compute(inst);
}

void Runtime::begin_eow(Instance& inst) {
  emit_trace("eow", inst, "");
  if (auto* tk = obs_track(inst)) tk->instant(topo_.sim().now(), "eow");
  inst.eow_executed = true;
  inst.state = Instance::State::kBusy;
  inst.charged_ops = 0.0;
  inst.user->process_eow(*inst.ctx);
  submit_compute(inst);
}

void Runtime::on_compute_done(Instance& inst) {
  if (inst.dead) return;
  inst.m.busy_time += topo_.sim().now() - inst.busy_start;
  if (auto* tk = obs_track(inst)) {
    tk->begin(inst.busy_start, "compute");
    tk->end(topo_.sim().now(), "compute");
  }
  inst.state = Instance::State::kDraining;
  inst.drain_start = topo_.sim().now();
  drain(inst);
}

void Runtime::drain(Instance& inst) {
  if (inst.dead) return;
  if (inst.state != Instance::State::kDraining) return;
  while (!inst.pending.empty()) {
    if (!dispatch_one(inst)) {
      emit_trace("stall", inst,
                 std::to_string(inst.pending.size()) + " pending");
      if (auto* tk = obs_track(inst)) {
        tk->instant(topo_.sim().now(), "stall",
                    static_cast<std::int64_t>(inst.pending.size()));
      }
      return;  // stalled on a window; resumed by credit
    }
  }
  inst.m.stall_time += topo_.sim().now() - inst.drain_start;
  inst.drain_start = topo_.sim().now();  // re-entries must not double-count
  if (inst.eow_executed) {
    // Finish-flush: a fault-tolerant producer stays responsible for its
    // dispatched buffers until consumers take them over; finishing earlier
    // would orphan them if a target dies. Re-entered by release / ack /
    // reclaim until the retention windows are empty.
    if (fault_tolerant() && has_outstanding(inst)) return;
    finish_instance(inst);
    return;
  }
  inst.state = Instance::State::kIdle;
  if (graph_.filter(inst.filter).is_source) {
    source_step(inst);
  } else {
    try_consume(inst);
  }
}

int Runtime::pick_target(Instance& inst, int out_port, int key) {
  SimWriter& w = inst.writers[static_cast<std::size_t>(out_port)];
  return w.pick(
      effective_policy(config_.policy, *w.stream->spec), config_.window,
      w.stream->wrr_order,
      [&](int t) { return w.targets[static_cast<std::size_t>(t)].declared_dead; },
      [&](int t) {
        return w.targets[static_cast<std::size_t>(t)].host == inst.host;
      },
      key);
}

bool Runtime::dispatch_one(Instance& inst) {
  PendingOut& out = inst.pending.front();
  SimWriter& wq = inst.writers[static_cast<std::size_t>(out.port)];
  if (fault_tolerant()) {
    // Every target copy set of this stream is dead: nothing can ever take
    // the buffer. Drop it (counted) so the producer — and the UOW — can
    // still terminate in degraded mode.
    bool any_live = false;
    for (const CopySet& t : wq.targets) {
      if (!t.declared_dead) { any_live = true; break; }
    }
    if (!any_live) {
      metrics_.faults.buffers_lost++;
      emit_trace("drop", inst,
                 wq.stream->spec->name + " all targets dead, " +
                     std::to_string(out.buf.size()) + "B");
      inst.pending.pop_front();
      return true;
    }
  }
  const int target = pick_target(inst, out.port, out.buf.route_key());
  if (target < 0) return false;

  SimWriter& w = inst.writers[static_cast<std::size_t>(out.port)];
  CopySet* cset = &w.targets[static_cast<std::size_t>(target)];

  w.on_dispatch(target);
  if (auto* tk = obs_track(inst)) {
    // Routing decision: chosen target plus the policy's outstanding count
    // for it (unacked under DD, in-flight under RR/WRR) after the dispatch.
    const auto& counts =
        effective_policy(config_.policy, *w.stream->spec) ==
                Policy::kDemandDriven
            ? w.unacked
            : w.in_flight;
    tk->instant(topo_.sim().now(), "policy.pick", target,
                counts[static_cast<std::size_t>(target)]);
  }
  // Retain a copy until the consumer takes responsibility (payload is
  // shared, so this costs an envelope, not a data copy).
  if (fault_tolerant()) {
    w.ft[static_cast<std::size_t>(target)].outstanding.push_back(out.buf);
  }

  auto& sm = metrics_.streams[static_cast<std::size_t>(w.stream->id)];
  sm.buffers++;
  sm.payload_bytes += out.buf.size();
  sm.message_bytes += out.buf.size() + config_.header_bytes;
  inst.m.buffers_out++;
  inst.m.bytes_out += out.buf.size();

  Delivery d;
  d.buf = std::move(out.buf);
  d.producer = &inst;
  d.out_port = out.port;
  d.target = target;
  const int out_port = out.port;
  inst.pending.pop_front();  // `out` is dangling from here on

  emit_trace("dispatch", inst,
             w.stream->spec->name + " -> h" + std::to_string(cset->host));

  const std::uint64_t msg_bytes = d.buf.size() + config_.header_bytes;
  // Move the delivery through the network; it lands in the copy set queue.
  auto shared = std::make_shared<Delivery>(std::move(d));
  topo_.network().send(inst.host, cset->host, msg_bytes,
                       [this, cset, shared] { deliver(*cset, std::move(*shared)); });
  arm_ack_timer(inst, out_port, target);
  return true;
}

void Runtime::deliver(CopySet& cset, Delivery d) {
  if (cset.down || cset.declared_dead) {
    // A delivery that raced the failure (sent before the crash was seen, or
    // to a fenced set). Drop it without releasing the producer's window —
    // the failover reclaim settles the accounting exactly once.
    if (trace_.enabled()) {
      trace_.emit(topo_.sim().now(), "drop",
                  "h" + std::to_string(cset.host) + " dead, " +
                      std::to_string(d.buf.size()) + "B");
    }
    return;
  }
  const int port =
      d.producer->writers[static_cast<std::size_t>(d.out_port)].stream->spec->to_port;
  cset.queues[static_cast<std::size_t>(port)].push_back(std::move(d));
  wake_copies(cset);
}

void Runtime::wake_copies(CopySet& cset) {
  for (Instance* copy : cset.copies) {
    if (copy->dead) continue;
    if (copy->state == Instance::State::kIdle) try_consume(*copy);
  }
}

void Runtime::on_eow_marker(CopySet& cset, int in_port) {
  auto& pending = cset.eow_pending[static_cast<std::size_t>(in_port)];
  // kill_instance settles dead producers' markers eagerly; a marker that was
  // already in flight then arrives over-complete — ignore it.
  if (pending > 0) --pending;
  wake_copies(cset);
}

void Runtime::finish_instance(Instance& inst) {
  emit_trace("finish", inst, "");
  if (auto* tk = obs_track(inst)) tk->instant(topo_.sim().now(), "finish");
  inst.charged_ops = 0.0;
  inst.user->finalize(*inst.ctx);
  inst.state = Instance::State::kFinished;

  // Send end-of-work markers to every consumer copy set, after all data
  // buffers (FIFO links guarantee markers cannot overtake data).
  for (auto& w : inst.writers) {
    const int in_port = w.stream->spec->to_port;
    for (CopySet& t : w.targets) {
      topo_.network().send(inst.host, t.host, config_.eow_bytes,
                           [this, cs = &t, in_port] { on_eow_marker(*cs, in_port); });
    }
  }

  if (--remaining_instances_ == 0) {
    uow_done_at_ = topo_.sim().now();
  }
}

void Runtime::on_window_release(Instance& producer, int out_port, int target) {
  if (producer.dead) return;
  SimWriter& w = producer.writers[static_cast<std::size_t>(out_port)];
  w.on_dequeue(target);
  if (fault_tolerant() && effective_policy(config_.policy, *w.stream->spec) !=
                              Policy::kDemandDriven) {
    // RR/WRR: the dequeue is where the consumer takes responsibility — the
    // oldest retained buffer for this target is now safe to release.
    auto& ft = w.ft[static_cast<std::size_t>(target)];
    assert(!ft.outstanding.empty());
    ft.outstanding.pop_front();
  }
  if (producer.state == Instance::State::kDraining) drain(producer);
}

void Runtime::on_ack(Instance& producer, int out_port, int target) {
  if (producer.dead) return;
  SimWriter& w = producer.writers[static_cast<std::size_t>(out_port)];
  if (fault_tolerant()) {
    auto& ft = w.ft[static_cast<std::size_t>(target)];
    CopySet& cs = w.targets[static_cast<std::size_t>(target)];
    if (cs.declared_dead || ft.outstanding.empty()) {
      // The ack raced the failover: its buffer was already reclaimed and
      // retransmitted elsewhere, so a consumer may process it twice.
      metrics_.faults.buffers_duplicated++;
      if (trace_.enabled()) {
        trace_.emit(topo_.sim().now(), "dup-ack",
                    graph_.filter(producer.filter).name + "#" +
                        std::to_string(producer.index) + " <- h" +
                        std::to_string(cs.host));
      }
      return;
    }
    ft.outstanding.pop_front();
    ft.acks_seen++;
    ft.strikes = 0;
    cs.suspected_since = -1.0;
    w.on_ack(target);
    if (ft.outstanding.empty() && ft.timer != 0) {
      topo_.sim().cancel(ft.timer);
      ft.timer = 0;
    }
    if (producer.state == Instance::State::kDraining) drain(producer);
    return;
  }
  w.on_ack(target);
  if (producer.state == Instance::State::kDraining) drain(producer);
}

// ---------------------------------------------------------------------------
// Fault handling
// ---------------------------------------------------------------------------

void Runtime::on_host_failed(int host) {
  if (!in_uow_ || !fault_tolerant()) return;
  metrics_.faults.hosts_failed++;
  census_.host_failed();
  const sim::SimTime now = topo_.sim().now();
  for (CopySet& cs : copysets_) {
    if (cs.host != host || cs.down) continue;
    cs.down = true;
    cs.down_since = now;
    for (Instance* c : cs.copies) kill_instance(*c);
    // Membership mode learns of the crash instantly and fails over now;
    // ack-timeout mode waits for producers to notice the silence.
    if (config_.detection == FailureDetection::kMembership) fail_copyset(cs);
  }
}

void Runtime::on_host_partitioned(int host, bool partitioned) {
  if (!in_uow_ || !fault_tolerant() || !partitioned) return;
  if (config_.detection != FailureDetection::kMembership) return;
  // The membership service reports the partition; fence the unreachable
  // copy sets exactly like crashed ones (their hosts stay alive, but no
  // message can reach them). Ack-timeout mode detects this on its own.
  for (CopySet& cs : copysets_) {
    if (cs.host != host || cs.down || cs.declared_dead) continue;
    if (cs.suspected_since < 0.0) cs.suspected_since = topo_.sim().now();
    for (Instance* c : cs.copies) kill_instance(*c);
    fail_copyset(cs);
  }
}

void Runtime::fail_copyset(CopySet& cset) {
  if (cset.declared_dead) return;
  cset.declared_dead = true;
  const sim::SimTime now = topo_.sim().now();
  const sim::SimTime since =
      cset.down_since >= 0.0 ? cset.down_since : cset.suspected_since;
  record_failover(metrics_.faults, since >= 0.0 ? now - since : -1.0);
  if (trace_.enabled()) {
    trace_.emit(now, "failover",
                graph_.filter(cset.filter).name + "@h" +
                    std::to_string(cset.host));
  }
  // Fence any copies that are still nominally alive (partition case).
  for (Instance* c : cset.copies) kill_instance(*c);
  // Undelivered queue contents die with the set; the producers' reclaim
  // below re-counts them through in_flight, so just drop here.
  for (auto& q : cset.queues) q.clear();
  // Reclaim + retransmit from every live producer that was feeding this set.
  for (auto& inst : instances_) {
    if (inst->dead) continue;
    for (std::size_t p = 0; p < inst->writers.size(); ++p) {
      SimWriter& w = inst->writers[p];
      for (std::size_t t = 0; t < w.targets.size(); ++t) {
        if (&w.targets[t] == &cset) {
          reclaim_outstanding(*inst, static_cast<int>(p), static_cast<int>(t));
        }
      }
    }
  }
  // Reclaimed buffers sit at the producers' queue fronts; get them moving.
  for (auto& inst : instances_) {
    if (!inst->dead) kick_dispatch(*inst);
  }
}

void Runtime::kill_instance(Instance& inst) {
  if (inst.dead || inst.state == Instance::State::kFinished) return;
  inst.dead = true;
  cancel_ack_timers(inst);
  const sim::SimTime now = topo_.sim().now();
  // Outputs it produced but never dispatched are gone for good.
  metrics_.faults.buffers_lost += inst.pending.size();
  inst.pending.clear();
  emit_trace("copy-dead", inst, "");
  census_.copies_died(inst.filter, 1);
  // Settle its end-of-work obligations: every consumer copy set was
  // expecting one marker from this copy and will never get it.
  for (auto& w : inst.writers) {
    const int in_port = w.stream->spec->to_port;
    for (CopySet& t : w.targets) {
      auto& pending = t.eow_pending[static_cast<std::size_t>(in_port)];
      if (pending > 0) --pending;
    }
    for (CopySet& t : w.targets) {
      if (!t.declared_dead && !t.down) wake_copies(t);
    }
  }
  if (--remaining_instances_ == 0) uow_done_at_ = now;
}

void Runtime::reclaim_outstanding(Instance& inst, int out_port, int target) {
  SimWriter& w = inst.writers[static_cast<std::size_t>(out_port)];
  auto& ft = w.ft[static_cast<std::size_t>(target)];
  if (ft.timer != 0) {
    topo_.sim().cancel(ft.timer);
    ft.timer = 0;
  }
  ft.strikes = 0;
  // Buffers sent but never dequeued (queued at the dead set, or still in the
  // network) are lost copies; everything retained is re-dispatched, so the
  // payload still reaches a live consumer at least once.
  metrics_.faults.buffers_lost +=
      static_cast<std::uint64_t>(w.in_flight[static_cast<std::size_t>(target)]);
  if (!ft.outstanding.empty()) {
    metrics_.faults.retransmits += ft.outstanding.size();
    emit_trace("retransmit", inst,
               std::to_string(ft.outstanding.size()) + " to " +
                   w.stream->spec->name);
    // Requeue at the front, oldest first, so retransmissions precede any
    // fresh output the copy produces later.
    for (auto it = ft.outstanding.rbegin(); it != ft.outstanding.rend(); ++it) {
      inst.pending.push_front(PendingOut{out_port, std::move(*it)});
    }
    ft.outstanding.clear();
  }
  w.in_flight[static_cast<std::size_t>(target)] = 0;
  w.unacked[static_cast<std::size_t>(target)] = 0;
}

void Runtime::arm_ack_timer(Instance& inst, int out_port, int target) {
  if (config_.detection != FailureDetection::kAckTimeout) return;
  SimWriter& w = inst.writers[static_cast<std::size_t>(out_port)];
  // Ack-timeout detection only makes sense on streams that actually carry
  // acks; a per-stream override away from DD has none to time out on.
  if (effective_policy(config_.policy, *w.stream->spec) !=
      Policy::kDemandDriven) {
    return;
  }
  auto& ft = w.ft[static_cast<std::size_t>(target)];
  if (ft.timer != 0 || ft.outstanding.empty()) return;
  if (w.targets[static_cast<std::size_t>(target)].declared_dead) return;
  const sim::SimTime delay =
      std::min(config_.ack_timeout *
                   std::pow(config_.ack_timeout_backoff, ft.strikes),
               config_.ack_timeout_max);
  const std::uint64_t snapshot = ft.acks_seen;
  Instance* ip = &inst;
  ft.timer = topo_.sim().after(delay, [this, ip, out_port, target, snapshot] {
    on_ack_timeout(*ip, out_port, target, snapshot);
  });
}

void Runtime::on_ack_timeout(Instance& inst, int out_port, int target,
                             std::uint64_t acks_snapshot) {
  SimWriter& w = inst.writers[static_cast<std::size_t>(out_port)];
  auto& ft = w.ft[static_cast<std::size_t>(target)];
  ft.timer = 0;
  if (inst.dead || !in_uow_) return;
  CopySet& cs = w.targets[static_cast<std::size_t>(target)];
  if (cs.declared_dead || ft.outstanding.empty()) return;
  if (ft.acks_seen != acks_snapshot) {
    // Progress since the timer was armed — the set is slow, not dead.
    ft.strikes = 0;
    arm_ack_timer(inst, out_port, target);
    return;
  }
  if (cs.suspected_since < 0.0) cs.suspected_since = topo_.sim().now();
  if (++ft.strikes >= config_.ack_timeout_strikes) {
    fail_copyset(cs);
    return;
  }
  arm_ack_timer(inst, out_port, target);
}

void Runtime::cancel_ack_timers(Instance& inst) {
  for (auto& w : inst.writers) {
    for (auto& ft : w.ft) {
      if (ft.timer != 0) {
        topo_.sim().cancel(ft.timer);
        ft.timer = 0;
      }
    }
  }
}

bool Runtime::has_outstanding(const Instance& inst) const {
  for (const auto& w : inst.writers) {
    for (const auto& ft : w.ft) {
      if (!ft.outstanding.empty()) return true;
    }
  }
  return false;
}

void Runtime::kick_dispatch(Instance& inst) {
  if (inst.dead || inst.pending.empty()) return;
  if (inst.state == Instance::State::kDraining) {
    drain(inst);
  } else if (inst.state == Instance::State::kIdle) {
    inst.state = Instance::State::kDraining;
    inst.drain_start = topo_.sim().now();
    drain(inst);
  }
}

}  // namespace dc::core
