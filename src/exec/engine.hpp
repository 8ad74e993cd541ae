#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/graph.hpp"
#include "core/mem_governor.hpp"
#include "core/metrics.hpp"
#include "core/placement.hpp"
#include "core/runtime.hpp"
#include "net/metrics.hpp"
#include "net/process.hpp"
#include "net/transport.hpp"
#include "obs/recorder.hpp"
#include "sim/rng.hpp"

namespace dc::exec {

/// Optional description of the machine the engine maps the Placement onto.
/// Host ids are the Placement's; only the class labels matter here (for
/// core::Metrics::buffers_in_by_class and FilterContext::host_class). Hosts
/// without an entry are labelled "native".
struct HostInfo {
  std::vector<std::string> host_classes;  ///< indexed by host id
};

/// Settings of a multi-process run (the rank constructor).
struct DistributedOptions {
  /// Deadline for the end-of-UOW completion barrier (waiting for every
  /// peer's DONE). Exceeding it aborts the run with a transport-error
  /// outcome instead of hanging on a wedged or dead peer. Under fault
  /// tolerance it also bounds producer credit stalls and the end-of-work
  /// retention settlement, so a frozen (not dead) peer can delay a UOW at
  /// most this long before a structured failure.
  double barrier_timeout_s = 120.0;

  // ---- fault tolerance (active when RuntimeConfig::detection != kNone) ----
  /// Idle-link heartbeat cadence. Liveness piggybacks on every received
  /// frame (DATA / CREDIT / DONE all count); beacons fill the gaps.
  double heartbeat_interval_s = 0.05;
  /// Silence threshold before a peer is declared dead. A SIGKILLed peer is
  /// detected instantly via TCP close; this timeout catches frozen peers
  /// (SIGSTOP, wedged) whose sockets stay open.
  double peer_timeout_s = 2.0;
  /// Re-place filter copies off dead ranks (via core::replace_dead_hosts)
  /// at the next UOW boundary instead of running degraded without them.
  /// Off by default: the default path mirrors the simulator's fault model,
  /// where dead copy sets stay dead and every later UOW re-counts their
  /// failover at admission.
  bool replace_dead = false;
};

/// Structured outcome of one unit of work. A UOW never hangs and never
/// crashes the process on peer misbehavior: every failure mode (filter
/// exception here, abort propagated from a peer, corrupt frame, peer
/// disconnect, barrier timeout) maps onto one of these.
enum class RunStatus {
  kComplete,        ///< clean completion, barrier passed on every rank
  kAborted,         ///< a filter callback threw (here or on a peer)
  kTransportError,  ///< wire violation, unexpected disconnect, or timeout
};

[[nodiscard]] const char* to_string(RunStatus s);

struct UowResult {
  RunStatus status = RunStatus::kComplete;
  double makespan = 0.0;  ///< wall seconds, local workers start -> barrier
  std::string error;      ///< empty when kComplete
  /// Fault-model classification of this UOW, using the simulator's exact
  /// discipline (core::Runtime::run_uow_outcome): per-UOW fault-counter
  /// deltas as observed by THIS rank, kDegraded when failovers perturbed
  /// the UOW, kPartialLoss when some filter lost every copy. The makespan
  /// field is wall time here (virtual time there); the logical fields —
  /// status, dead_filters, failovers — match the simulator bit for bit for
  /// the equivalent fault plan.
  core::UowOutcome outcome;

  [[nodiscard]] bool ok() const { return status == RunStatus::kComplete; }
};

/// The threaded execution engine: instantiates a core::FilterGraph +
/// Placement on real OS threads — one worker thread per transparent copy,
/// bounded MPMC buffer queues per copy set, and the same writer policies
/// (RR / WRR / DD / tile owner) as the simulator runtime, driven through the
/// shared core::WriterState so all engines run one policy implementation.
///
/// One engine serves both deployments. A single-process engine runs every
/// host of the placement. In a multi-process run each OS process builds one
/// engine per rank, and rank r runs the copies placed on host r; streams
/// between ranks travel as dc::net frames. Filters never see the difference
/// — the paper's transparency carries all the way across real sockets.
///
/// Execution model per UOW: fresh Filter objects are created per copy
/// (init / process / finalize cycle, identical to the simulator), in the
/// same copy-set order and with the same per-copy RNG split salts on every
/// rank, so for the same graph + placement + seed a run produces
/// BIT-IDENTICAL merged output to the simulator, however the hosts are
/// spread over processes. Source copies loop step() and dispatch their
/// outputs through per-target flow-control windows (RR/WRR cap in-flight
/// buffers; DD caps unacknowledged ones, ties preferring co-located copies):
///
///  - dispatch: the writer picks a target copy set among ALL copy sets of
///    the consumer. Targets in this process are fed through their
///    exec::PortChannel directly; targets on another rank get a DATA frame.
///  - flow control: a consumer dequeue frees the producer's window slot —
///    in-process via a direct WriterState update, across ranks via a CREDIT
///    frame (and, under DD, an ACK frame: the paper's demand signal on the
///    wire).
///  - end of work: per producer copy and target set, in-process via
///    PortChannel::producer_eow, across ranks via an EOW frame. Consumer
///    copies of one copy set share its channel; each runs process_eow after
///    every marker arrived and the channel drained.
///
/// Channel capacity: a channel fed only from this process holds `window`
/// buffers per port, and its producers block on a full port. A channel with
/// a producer on another rank holds max producers x `window` per port — all
/// the credit windows allow outstanding — so the peer-link recv threads
/// never block on a push, which makes the credit loop deadlock-free by
/// construction.
///
/// A UOW ends with a DONE barrier across the ranks; aborts and wire errors
/// propagate as ABORT frames so every process ends the UOW with a
/// structured UowResult. Under RuntimeConfig::detection != kNone (multi-
/// process runs only) peer death fails over the dead rank's copy sets with
/// at-least-once retransmission of retained buffers.
///
/// Differences from the simulator: time is wall-clock, and charge() /
/// read_disk() only account demand (nothing is retired on a virtual CPU or
/// disk).
class Engine {
 public:
  /// Single process: every host of the placement runs here. Fault
  /// detection needs peers, so RuntimeConfig::detection must be kNone.
  Engine(const core::Graph& graph, const core::Placement& placement,
         core::RuntimeConfig config = {}, HostInfo hosts = {});
  /// Rank `rank` of `num_ranks` cooperating processes. `peers`: connected
  /// sockets indexed by rank (from net::connect_mesh); the slot at `rank` is
  /// ignored. Placement hosts must lie in [0, num_ranks).
  Engine(const core::Graph& graph, const core::Placement& placement,
         core::RuntimeConfig config, int rank, int num_ranks,
         std::vector<net::Socket> peers, DistributedOptions opts = {},
         HostInfo hosts = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs one unit of work and returns its wall-clock makespan in seconds.
  /// An exception raised by a filter callback in this process aborts the
  /// UOW (every thread unwinds and joins) and is rethrown here with its
  /// type preserved; any other failure (a peer's abort, a transport error)
  /// throws std::runtime_error.
  double run_uow();

  /// Runs one unit of work to completion or structured failure, in
  /// lockstep with the peer ranks. Every rank must make the same number of
  /// run calls.
  UowResult run_uow_outcome();

  /// Flushes and closes every peer link. Called by the destructor; safe to
  /// call early (after the last run call) or twice.
  void shutdown();

  /// Snapshot of the cumulative metrics over the instances this process
  /// ran; durations are wall-clock seconds. In a multi-process run, summing
  /// the stream and ack ledgers across ranks reproduces the single-process
  /// ledger exactly. `faults` is this process's view (its own failovers
  /// observed, its producers' retransmits / losses); per-UOW deltas are in
  /// UowResult::outcome.
  [[nodiscard]] core::Metrics metrics() const;
  [[nodiscard]] const net::NetMetrics& net_metrics() const {
    return net_metrics_;
  }

  /// Attaches the process-fault harness's trigger cell (nullptr detaches;
  /// must outlive the engine). The engine reports UOW entry (at_uow),
  /// remote DATA dispatch progress (kFrames / kBytes) and dispatched
  /// buffers (kBuffers) through it, giving tests deterministic logical kill
  /// points. Attach before the first run call.
  void set_fault_cell(net::FaultCell* cell) { fault_cell_ = cell; }

  [[nodiscard]] const core::RuntimeConfig& config() const { return config_; }

  /// Memory-governor counters of this process (all zero when ungoverned,
  /// i.e. RuntimeConfig::memory_budget_bytes == 0). Cumulative across UOWs.
  /// In governed mode every channel's floor is `window` per port and an
  /// elastic push spills instead of blocking (so recv threads still never
  /// block); dispatch to a stream whose targets are all in this process is
  /// no longer window-limited, while a stream that crosses the wire keeps
  /// the `window` credit protocol.
  [[nodiscard]] core::GovernorStats governor_stats() const;

  /// Attaches a cross-engine observability session (nullptr detaches; must
  /// outlive every run call). Each worker thread records onto its own
  /// "exec:<filter>#<copy>@h<host>" track: init / step / process / eow /
  /// finalize callback spans, one queue.wait span per channel pop, consume
  /// and DD-ack instants, a policy.pick instant (chosen target +
  /// outstanding count) per dispatched buffer, and the timing-dependent
  /// stall span and push.wait instant. Timestamps are wall seconds since
  /// the session epoch. In a multi-process run, peer links also record
  /// net.send / net.recv spans on "net:r<a>->r<b>" tracks, and producers a
  /// credit.stall instant on "net:r<rank>" per window stall. Attach BEFORE
  /// the first run call; detached, each emit site costs a null check.
  void set_obs(obs::TraceSession* session);

  // Implementation types, public only so the translation unit's helpers can
  // reference them; not part of the stable API.
  struct Instance;
  struct CopySetRt;
  struct StreamRt;
  struct ContextImpl;
  struct Delivery;
  struct Writer;

 private:
  /// Whether copies placed on `host` run in this process: rank r runs host
  /// r, and a single-process engine runs every host.
  [[nodiscard]] bool in_process(int host) const {
    return num_ranks_ == 1 || host == rank_;
  }
  void start_links();  ///< lazily on the first run call (after set_obs)
  [[nodiscard]] const std::string& host_class_of(int host) const;
  /// Lazily creates the instance's obs track; nullptr when no session is
  /// attached.
  obs::Track* obs_track(Instance& inst);
  void build_uow();
  void teardown_uow();
  void worker_main(Instance& inst);
  void source_loop(Instance& inst, ContextImpl& ctx);
  void consume_loop(Instance& inst, ContextImpl& ctx);
  void drain(Instance& inst);
  void dispatch(Instance& inst, int port, core::Buffer buf);
  void settle_dequeue(const Delivery& d, bool dd);
  /// Handles one validated frame from a peer (recv threads).
  void on_frame(int peer, const net::Frame& f);
  void on_wire_error(int peer, net::WireError err, const std::string& detail);
  /// Delivers a DATA / EOW / CREDIT / ACK frame into the built structures.
  /// Caller holds state_mu_ and has checked the frame's uow matches.
  /// Returns nullptr on success, a static protocol-violation message
  /// otherwise (the caller escalates it to a transport error after
  /// releasing state_mu_).
  const char* deliver_locked(const net::Frame& f, int origin);
  /// Records the first failure, wakes every blocked thread, optionally
  /// broadcasts ABORT to the peers.
  void abort_run(RunStatus status, const std::string& reason, bool broadcast);

  // ---- fault tolerance -----------------------------------------------------
  [[nodiscard]] bool fault_tolerant() const {
    return config_.detection != core::FailureDetection::kNone;
  }
  /// The placement the current UOW runs under — the user's placement, or
  /// the re-placed one when replace_dead moved copies off dead ranks.
  [[nodiscard]] const core::Placement& pl() const {
    return use_effective_ ? effective_placement_ : placement_;
  }
  /// Declares `peer` dead (idempotent). If the peer had not yet passed the
  /// current UOW's DONE barrier, its copy sets fail over immediately:
  /// routing fences them, local producers reclaim and retransmit retained
  /// buffers, consumers' end-of-work obligations settle. Otherwise the
  /// death only marks membership — the next UOW's admission pre-pass
  /// re-counts the failover, exactly like the simulator.
  void on_peer_dead(int peer);
  /// Fails over one (remote) copy set of the current UOW. state_mu_ held.
  void fail_copyset_locked(CopySetRt& cset);
  /// Heartbeat-timeout watchdog loop (fault-tolerant runs only).
  void monitor_main();

  const core::Graph& graph_;
  const core::Placement& placement_;
  core::RuntimeConfig config_;
  DistributedOptions opts_;
  HostInfo hosts_;
  int rank_;
  int num_ranks_;
  std::vector<std::size_t> buffer_bytes_;  ///< negotiated, per stream

  std::vector<net::Socket> peer_sockets_;  ///< until links start
  std::vector<std::unique_ptr<net::PeerLink>> links_;  ///< by rank; null at self

  // UOW state, guarded by state_mu_ where noted.
  std::mutex state_mu_;
  std::condition_variable state_cv_;
  bool built_ = false;       ///< structures of uow_index_ are live
  bool running_ = false;     ///< between worker start and barrier exit
  bool poisoned_ = false;    ///< a previous UOW failed; engine unusable
  RunStatus status_ = RunStatus::kComplete;
  std::string error_;
  /// First exception a local filter callback raised this UOW (run_uow
  /// rethrows it).
  std::exception_ptr first_error_;
  std::vector<net::Frame> pending_;  ///< early frames for a not-yet-built uow
  std::map<std::uint32_t, int> done_counts_;  ///< uow -> DONEs received
  std::set<std::uint32_t> pending_aborts_;  ///< ABORTs for UOWs not yet begun
  /// Per peer: one past the last UOW that peer sent DONE for. A clean close
  /// from a peer that has DONE'd the current UOW is an orderly shutdown (it
  /// finished its run first), not a transport failure.
  std::vector<std::uint32_t> peer_done_next_;

  std::atomic<bool> aborted_{false};

  // Live only while built_ (state_mu_ held for structural access from the
  // recv threads; worker threads own their instances).
  std::vector<std::unique_ptr<Instance>> instances_;
  std::vector<std::unique_ptr<CopySetRt>> copysets_;
  std::vector<std::unique_ptr<StreamRt>> stream_rt_;
  std::vector<std::vector<Instance*>> local_by_filter_;  ///< [filter][global]
  int uow_index_ = 0;
  /// Non-null iff config_.memory_budget_bytes > 0; outlives every copy set.
  std::unique_ptr<core::MemoryGovernor> governor_;

  // ---- fault-tolerance state ----------------------------------------------
  /// Peers declared dead (index by rank; sticky for the engine's lifetime).
  /// Written under state_mu_; atomic so hot paths may read without it.
  std::vector<std::atomic<char>> rank_dead_;
  /// Last frame arrival per peer, steady-clock nanoseconds (monitor input).
  std::vector<std::atomic<std::int64_t>> last_heard_ns_;
  std::thread monitor_;
  std::mutex monitor_mu_;
  std::condition_variable monitor_cv_;
  bool monitor_stop_ = false;
  /// Local fault counters (this rank's view); guarded by faults_mu_ — they
  /// are bumped from worker, recv, and monitor threads alike.
  mutable std::mutex faults_mu_;
  core::FaultMetrics faults_;
  /// Ranks whose death has been charged to faults_.hosts_failed. Mid-UOW
  /// deaths are charged at detection (the simulator counts them in-UOW);
  /// boundary deaths are charged at the next admission pre-pass, so a rank
  /// that exits cleanly after the final UOW is never counted. state_mu_.
  std::vector<char> hosts_counted_;
  /// Mid-UOW host failures observed during the CURRENT UOW — the outcome's
  /// "perturbed" input. Boundary deaths stay out, mirroring the simulator
  /// (whose on_host_failed is gated on in_uow_).
  std::atomic<std::uint64_t> hosts_failed_uow_{0};
  /// Per-UOW survivor bookkeeping, guarded by state_mu_.
  std::vector<int> live_copies_;        ///< per filter, current UOW
  std::vector<int> dead_filters_uow_;   ///< filters that lost every copy
  core::Placement effective_placement_;  ///< replace_dead rewrite
  bool use_effective_ = false;
  net::FaultCell* fault_cell_ = nullptr;

  core::Metrics metrics_;  ///< all but faults, which live in faults_
  net::NetMetrics net_metrics_;
  sim::Rng base_rng_;
  obs::TraceSession* obs_ = nullptr;
  obs::Track* net_track_ = nullptr;  ///< "net:r<rank>" (credit.stall)
};

}  // namespace dc::exec
