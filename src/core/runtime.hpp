#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "core/metrics.hpp"
#include "core/placement.hpp"
#include "core/policy.hpp"
#include "obs/recorder.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"

namespace dc::core {

/// Knobs of the filtering service.
struct RuntimeConfig {
  Policy policy = Policy::kDemandDriven;
  /// Sliding-window depth per (producer copy -> consumer copy set): RR/WRR
  /// cap in-flight (sent but not yet dequeued) buffers; DD caps
  /// unacknowledged buffers.
  int window = 4;
  std::uint64_t header_bytes = 64;  ///< per-buffer message envelope
  std::uint64_t ack_bytes = 64;     ///< DD acknowledgment message size
  std::uint64_t eow_bytes = 64;     ///< end-of-work marker message size
  /// Buffer size the runtime prefers when a stream's [min,max] allows it.
  std::size_t default_buffer_bytes = 64 * 1024;
  std::uint64_t rng_seed = 42;
  /// Livelock guard: a UOW firing more events than this throws.
  std::uint64_t max_events_per_uow = 2'000'000'000ULL;

  // ---- memory governor (ROADMAP item 3) ------------------------------------
  /// Per-host byte budget for queued stream buffers. 0 reproduces the legacy
  /// fixed-window behavior exactly. Nonzero switches exec::Engine (single-
  /// or multi-process) into governed mode: every copy-set queue keeps a
  /// floor of `window` slots and grows elastically into the budget; overflow
  /// spills to disk instead of stalling the producer, and is re-admitted in
  /// FIFO order so outputs stay bit-identical to the fixed-window baseline.
  /// The simulator ignores the budget (virtual memory residency is not
  /// modeled) and remains the fixed-window reference behavior.
  std::size_t memory_budget_bytes = 0;
  /// Directory for spill files; empty resolves $TMPDIR, falling back to
  /// /tmp (io::temp_root).
  std::string spill_dir;

  // ---- fault tolerance -----------------------------------------------------
  /// kNone reproduces the seed behavior exactly (no retention, no timers —
  /// and no survival of faults). kMembership / kAckTimeout enable graceful
  /// degradation: producers retain dispatched buffers until the consumer
  /// takes responsibility for them (dequeue for RR/WRR, ack for DD) and
  /// retransmit them to surviving copy sets when a copy set dies.
  FailureDetection detection = FailureDetection::kNone;
  /// kAckTimeout only: base no-ack-progress timeout before a copy set is
  /// suspected. Each consecutive silent timeout multiplies the next one by
  /// `ack_timeout_backoff` (capped at `ack_timeout_max`); after
  /// `ack_timeout_strikes` consecutive silent timeouts the copy set is
  /// declared dead and fenced.
  sim::SimTime ack_timeout = 0.05;
  double ack_timeout_backoff = 2.0;
  sim::SimTime ack_timeout_max = 1.0;
  int ack_timeout_strikes = 3;
};

/// Validates the engine-agnostic knobs of `config`: positive window, nonzero
/// buffer size, consistent ack-timeout parameters. Throws
/// std::invalid_argument with a field-specific message on violation. Both
/// execution engines (the simulator Runtime and the native exec::Engine) call
/// this before instantiating anything, so a bad config fails loudly instead
/// of deadlocking or dividing by zero mid-UOW.
void validate(const RuntimeConfig& config);

/// The filtering service: instantiates a filter graph onto a simulated
/// topology according to a Placement, runs units of work, and collects
/// metrics.
///
/// Execution model: each transparent copy is an actor. The runtime delivers
/// one buffer at a time to a copy; the copy's real computation runs
/// immediately and its declared cost is retired on the host's
/// processor-sharing CPU in virtual time. Output buffers release when the
/// compute completes and flow through bounded per-target windows
/// (backpressure); the writer policy picks the destination copy set per
/// buffer. End-of-work markers propagate per producer copy; a consumer copy
/// runs process_eow() after every producer copy's marker arrived and the
/// shared queues drained.
class Runtime {
 public:
  Runtime(sim::Topology& topo, const Graph& graph, const Placement& placement,
          RuntimeConfig config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Runs one unit of work to completion. Fresh filter objects are created
  /// per UOW (init / process / finalize cycle). Returns the UOW makespan in
  /// virtual seconds.
  sim::SimTime run_uow();

  /// Like run_uow(), but reports what happened: whether the UOW ran clean,
  /// completed in degraded mode (failovers, but every filter kept at least
  /// one live copy), or lost a filter entirely (partial output). With fault
  /// tolerance enabled the UOW never hangs on a crash — it always returns a
  /// structured outcome.
  UowOutcome run_uow_outcome();

  /// Cumulative metrics across all UOWs run so far.
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  void reset_metrics();

  /// Optional event trace (disabled by default): records `dispatch`,
  /// `deliver`, `consume`, `stall`, `eow`, and `finish` events with filter /
  /// copy / host detail. Enable via `trace().enable()` before run_uow().
  [[nodiscard]] sim::Trace& trace() { return trace_; }

  /// Attaches a cross-engine observability session (nullptr detaches). Each
  /// transparent copy gets a "sim:<filter>#<copy>@h<host>" track carrying
  /// init/compute spans, consume / eow / finish / policy.pick instants and
  /// DD ack events — all stamped in VIRTUAL seconds, so a simulated run
  /// renders on the same Perfetto timeline as a native one (obs maps both
  /// onto Chrome trace time). The session must outlive every run_uow() call;
  /// detached (the default), each emit site costs one pointer null check.
  void set_obs(obs::TraceSession* session) { obs_ = session; }
  [[nodiscard]] obs::TraceSession* obs() const { return obs_; }

  [[nodiscard]] const RuntimeConfig& config() const { return config_; }
  [[nodiscard]] int total_copies(int filter) const;
  [[nodiscard]] sim::Topology& topology() { return topo_; }

  // Implementation types, public only so that helper structs in the
  // translation unit can reference them; not part of the stable API.
  struct Instance;
  struct CopySet;
  struct StreamRt;
  struct ContextImpl;
  struct Delivery;

 private:
  void build_uow();
  void teardown_uow();
  void start_instance(Instance& inst);
  void on_init_done(Instance& inst);
  void source_step(Instance& inst);
  void run_source_io_then_compute(Instance& inst);
  void submit_compute(Instance& inst);
  void try_consume(Instance& inst);
  void begin_eow(Instance& inst);
  void on_compute_done(Instance& inst);
  void drain(Instance& inst);
  bool dispatch_one(Instance& inst);
  void deliver(CopySet& cset, Delivery d);
  void on_eow_marker(CopySet& cset, int in_port);
  void wake_copies(CopySet& cset);
  void finish_instance(Instance& inst);
  void on_window_release(Instance& producer, int out_port, int target);
  void on_ack(Instance& producer, int out_port, int target);
  [[nodiscard]] int pick_target(Instance& inst, int out_port, int key = -1);

  // ---- fault handling ------------------------------------------------------
  [[nodiscard]] bool fault_tolerant() const {
    return config_.detection != FailureDetection::kNone;
  }
  void on_host_failed(int host);
  void on_host_partitioned(int host, bool partitioned);
  /// Declares a copy set dead: fences its copies, drops its queues, reclaims
  /// every producer's outstanding buffers to it and retransmits them.
  void fail_copyset(CopySet& cset);
  /// Removes one copy from the UOW (crash or fencing): cancels its timers,
  /// drops its undelivered outputs, settles its end-of-work obligations.
  void kill_instance(Instance& inst);
  void reclaim_outstanding(Instance& inst, int out_port, int target);
  void arm_ack_timer(Instance& inst, int out_port, int target);
  void on_ack_timeout(Instance& inst, int out_port, int target,
                      std::uint64_t acks_snapshot);
  void cancel_ack_timers(Instance& inst);
  [[nodiscard]] bool has_outstanding(const Instance& inst) const;
  void kick_dispatch(Instance& inst);

  sim::Topology& topo_;
  const Graph& graph_;
  const Placement& placement_;
  RuntimeConfig config_;
  std::vector<std::size_t> buffer_bytes_;  ///< negotiated, per stream

  // Live only between build_uow() and teardown_uow().
  std::vector<std::unique_ptr<Instance>> instances_;
  std::vector<std::unique_ptr<CopySet>> copysets_;
  std::vector<std::unique_ptr<StreamRt>> stream_rt_;
  int remaining_instances_ = 0;
  sim::SimTime uow_done_at_ = 0.0;
  int uow_index_ = 0;
  bool in_uow_ = false;
  std::vector<int> live_copies_;   ///< per filter, current UOW
  std::vector<int> dead_filters_;  ///< filters that lost every copy, this UOW

  sim::Topology::ListenerId failure_listener_ = 0;
  sim::Topology::ListenerId partition_listener_ = 0;

  Metrics metrics_;
  sim::Rng base_rng_;
  sim::Trace trace_;
  obs::TraceSession* obs_ = nullptr;

  void emit_trace(const char* tag, const Instance& inst, const std::string& detail);
  /// Lazily creates the instance's obs track; nullptr when no session is
  /// attached.
  obs::Track* obs_track(Instance& inst);
};

}  // namespace dc::core
