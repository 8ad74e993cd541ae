#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace dc::obs {
class MetricsRegistry;
}

namespace dc::core {

/// Per-filter-instance counters. Both engines keep this ledger: durations
/// are virtual seconds on the simulator (core::Runtime) and wall-clock
/// seconds on the threaded engine (exec::Engine).
struct InstanceMetrics {
  int filter = -1;
  int instance = -1;
  int host = -1;
  std::string host_class;
  double work_ops = 0.0;              ///< charged compute demand
  sim::SimTime busy_time = 0.0;       ///< time spent in CPU jobs / callbacks
  sim::SimTime stall_time = 0.0;      ///< time blocked on output windows
  /// Wall-clock only (the simulator's event-driven actors never wait for
  /// input, so it leaves these 0): time blocked waiting for input, and
  /// time blocked on real storage I/O.
  double queue_wait_time = 0.0;
  double io_wait_time = 0.0;
  std::uint64_t buffers_in = 0;
  std::uint64_t buffers_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t disk_bytes = 0;
  std::uint64_t acks_sent = 0;
};

/// Per-logical-stream counters (Table 1 reports these).
struct StreamMetrics {
  std::string name;
  std::uint64_t buffers = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t message_bytes = 0;  ///< payload + headers
};

/// Fault-tolerance counters (cumulative, like the rest of Metrics).
struct FaultMetrics {
  std::uint64_t hosts_failed = 0;  ///< fail-stop crashes observed mid-UOW
  /// Copy sets declared dead and routed around (one per copy set).
  std::uint64_t failovers = 0;
  /// Buffers re-dispatched to a surviving copy set after a failover.
  std::uint64_t retransmits = 0;
  /// Buffer copies that never reached a live consumer: in flight to a dead
  /// copy set at failover, queued on the dead host, produced by a copy that
  /// died before dispatching, or dropped because every target copy set of
  /// the stream is dead. Retransmits recover all but the last category.
  std::uint64_t buffers_lost = 0;
  /// Acknowledgments for buffers the producer had already reclaimed (the
  /// ack raced the failover) — each one marks a potential duplicate delivery.
  std::uint64_t buffers_duplicated = 0;
  /// Virtual time from the instant a copy set's host crashed (or, for a
  /// fenced-but-alive host, from first suspicion) to its failover.
  sim::SimTime recovery_latency_total = 0.0;
  sim::SimTime recovery_latency_max = 0.0;

  void reset() { *this = FaultMetrics{}; }
};

/// Outcome classification of one unit of work.
enum class UowStatus {
  kComplete,     ///< no faults perturbed this UOW
  kDegraded,     ///< failovers happened, but every filter kept >= 1 copy:
                 ///< all payload was delivered at least once
  kPartialLoss,  ///< some filter lost every copy; the surviving pipeline ran
                 ///< to completion but its output is incomplete
};

[[nodiscard]] inline const char* to_string(UowStatus s) {
  switch (s) {
    case UowStatus::kComplete: return "complete";
    case UowStatus::kDegraded: return "degraded";
    case UowStatus::kPartialLoss: return "partial-loss";
  }
  return "?";
}

/// Structured result of Runtime::run_uow_outcome(): what happened, not just
/// how long it took. Fault counters are the deltas for this UOW only.
struct UowOutcome {
  UowStatus status = UowStatus::kComplete;
  sim::SimTime makespan = 0.0;
  std::vector<int> dead_filters;  ///< filters whose every copy died
  std::uint64_t failovers = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t buffers_lost = 0;
  std::uint64_t buffers_duplicated = 0;

  /// True when every filter still had at least one live copy at the end.
  [[nodiscard]] bool data_complete() const {
    return status != UowStatus::kPartialLoss;
  }
};

/// Aggregate of one filter over all its instances (Table 2 reports min /
/// avg / max processing time per filter).
struct FilterAggregate {
  std::string name;
  int instances = 0;
  sim::SimTime busy_min = 0.0;
  sim::SimTime busy_avg = 0.0;
  sim::SimTime busy_max = 0.0;
  double work_ops = 0.0;
};

/// Everything measured during one or more UOWs, on either engine.
struct Metrics {
  std::vector<InstanceMetrics> instances;
  std::vector<StreamMetrics> streams;
  sim::SimTime makespan = 0.0;  ///< last UOW duration
  std::uint64_t acks_total = 0;
  std::uint64_t ack_bytes_total = 0;
  FaultMetrics faults;

  /// Aggregates instance metrics by filter id.
  [[nodiscard]] FilterAggregate aggregate_filter(int filter,
                                                 const std::string& name) const {
    FilterAggregate agg;
    agg.name = name;
    bool first = true;
    double sum = 0.0;
    for (const auto& m : instances) {
      if (m.filter != filter) continue;
      ++agg.instances;
      sum += m.busy_time;
      agg.work_ops += m.work_ops;
      if (first || m.busy_time < agg.busy_min) agg.busy_min = m.busy_time;
      if (first || m.busy_time > agg.busy_max) agg.busy_max = m.busy_time;
      first = false;
    }
    if (agg.instances > 0) agg.busy_avg = sum / agg.instances;
    return agg;
  }

  /// Buffers received by copies of `filter`, grouped by host class
  /// (Table 3 reports the per-node average of these).
  [[nodiscard]] std::map<std::string, std::uint64_t> buffers_in_by_class(
      int filter) const {
    std::map<std::string, std::uint64_t> by_class;
    for (const auto& m : instances) {
      if (m.filter != filter) continue;
      by_class[m.host_class] += m.buffers_in;
    }
    return by_class;
  }
};

/// Publishes this Metrics snapshot into the unified registry under dotted
/// `<prefix>.` names: makespan / ack totals, instance-count and summed
/// per-instance counters (buffers, bytes, busy/stall time, ...), one
/// `<prefix>.stream.<name>.*` group per logical stream, and the fault
/// counters. set()-semantics — publishing twice overwrites, so benches call
/// it once at finalize. Simulator runs publish under "sim", threaded-engine
/// runs under "exec"; with io::publish this is the whole export surface, so
/// every bench emits one registry JSON.
void publish(const Metrics& m, obs::MetricsRegistry& reg,
             const std::string& prefix = "sim");

}  // namespace dc::core
