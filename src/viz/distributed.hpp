#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/runtime.hpp"
#include "exec/engine.hpp"
#include "net/metrics.hpp"
#include "net/process.hpp"
#include "viz/app.hpp"

namespace dc::viz {

struct DistributedRunOptions {
  /// Hard deadline for the whole process group (run_local_ranks watchdog).
  double timeout_s = 120.0;
  /// Non-empty: each rank records an obs::TraceSession (net.send/net.recv
  /// spans, credit.stall instants) and writes `<dir>/rank<k>.trace.json`.
  std::string trace_dir;
  /// App-construction hook: each rank calls it (instead of build_iso_app)
  /// to build its graph + placement + sink from the spec. Must be
  /// deterministic — every rank builds the identical app. The tiled
  /// compositor (comp::build_tiled_iso_app) plugs in here.
  std::function<IsoApp(const IsoAppSpec&)> builder;
};

/// Outcome of a multi-process distributed render: every rank's process
/// status, the merged images (from the rank hosting the single Merge copy),
/// and the cross-rank aggregated ledgers.
struct DistributedRenderRun {
  bool ok = false;  ///< every rank exited 0 with every UOW complete
  std::string error;                    ///< first failure description
  std::vector<net::RankStatus> ranks;   ///< process exit statuses
  std::vector<int> uow_status;          ///< worst exec::RunStatus per UOW
  std::vector<double> per_uow;          ///< merge-rank wall makespans
  std::vector<std::uint64_t> digests;   ///< merged image digests, per UOW
  std::vector<Image> images;            ///< merged images (keep_images)
  /// Every rank's instance metrics, and the stream / ack ledgers summed
  /// across ranks. For the same spec + config + seed the ledgers match a
  /// single-process exec::Engine's exactly, and on single-copy chains so do
  /// the per-instance counters. `faults` takes the max of hosts_failed and
  /// failovers (every rank books each dead copy set once, so per-rank counts
  /// are already global) and sums the per-rank partial counts.
  core::Metrics metrics;
  net::NetMetricsSnapshot net;  ///< transport counters summed across ranks
  /// Memory-governor counters summed across ranks (high-water and budget
  /// are maxed — the budget is per host). All zero for ungoverned runs
  /// (RuntimeConfig::memory_budget_bytes == 0). The spill differential
  /// tests assert spilled_buffers > 0 here to prove the tiny-budget run
  /// actually exercised the spill path.
  core::GovernorStats governor;
};

/// Renders `uows` timesteps of `spec` on `num_ranks` cooperating OS
/// processes (one per simulated host) connected by the dc::net transport.
/// The parent forks the ranks, each builds the identical graph + placement,
/// runs its rank of exec::Engine in lockstep, and reports back through a
/// per-rank result file; the parent aggregates. Every rank checks at exit
/// that the arena's payload-copy counter stayed zero — exit code 6 if a
/// copy crept onto the zero-copy data path. Must be called from a
/// single-threaded process (fork semantics).
DistributedRenderRun run_iso_app_distributed(const IsoAppSpec& spec,
                                             const core::RuntimeConfig& cfg,
                                             int uows, int num_ranks,
                                             DistributedRunOptions opts = {});

}  // namespace dc::viz
