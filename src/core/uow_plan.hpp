#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/filter.hpp"
#include "core/graph.hpp"
#include "core/metrics.hpp"
#include "core/placement.hpp"
#include "sim/rng.hpp"

namespace dc::core {

struct RuntimeConfig;

/// Rejects a graph or placement no engine can run: Graph::validate's checks,
/// a filter without copies, or a non-source filter without input streams.
/// Throws std::invalid_argument. Each engine checks host ids against its own
/// machine on top of this.
void validate(const Graph& graph, const Placement& placement);

/// The engine-independent structure of one unit of work: copy sets, stream
/// targets, per-copy identity and random streams, EOW producer counts and
/// negotiated buffer sizes. Both engines (core::Runtime, exec::Engine) build
/// one per UOW and derive their runtime state from it, so a filter sees the
/// same identity, random stream and buffer sizes on every engine and rank.
class UowPlan {
 public:
  /// The transparent copies of one filter on one host (a placement entry).
  struct CopySet {
    int filter = -1;
    int host = -1;
    int first_global = 0;  ///< global index of the set's first copy
    int num_copies = 0;
  };

  /// One logical stream. Its targets are the consumer's copy sets, in
  /// placement order: target t is copy set `first_target + t`.
  struct Stream {
    const StreamSpec* spec = nullptr;
    int id = -1;
    int first_target = 0;
    int num_targets = 0;
    int producers = 0;  ///< producer copies: EOW markers each target expects
    std::size_t buffer_bytes = 0;  ///< negotiated
    std::vector<int> wrr_order;  ///< target indices, one per consumer copy

    /// The targets' entries in `sets`, a per-copy-set table in plan order.
    template <typename Set>
    [[nodiscard]] std::span<Set> targets(std::vector<Set>& sets) const {
      return std::span<Set>(sets).subspan(st(first_target), st(num_targets));
    }
  };

  /// Identity of one transparent copy, and its random stream for the UOW.
  struct Copy {
    int filter = -1;
    int index = -1;         ///< global index among the filter's copies
    int copy_in_host = -1;  ///< index within the copy set
    int copies_on_host = 0;
    int host = -1;
    int copyset = -1;  ///< index into copysets()
    const std::string* host_class = nullptr;
    sim::Rng rng;

    /// An empty ledger entry for this copy.
    [[nodiscard]] InstanceMetrics ledger() const {
      return {.filter = filter, .instance = index, .host = host,
              .host_class = *host_class};
    }
  };

  UowPlan() = default;
  /// `host_classes` is indexed by host id; hosts past its end are labelled
  /// "native". The plan keeps pointers into it and into `graph`. `base_rng`
  /// is split once per copy in global order, for copies on other ranks too,
  /// so a copy draws the same stream however hosts spread over processes.
  UowPlan(const Graph& graph, const Placement& placement,
          const RuntimeConfig& config,
          const std::vector<std::string>& host_classes, int uow,
          sim::Rng& base_rng);

  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] int uow() const { return uow_; }
  [[nodiscard]] const std::vector<CopySet>& copysets() const {
    return copysets_;
  }
  [[nodiscard]] const std::vector<Stream>& streams() const { return streams_; }
  /// Every copy in global order: by filter, then placement entry, then copy.
  [[nodiscard]] const std::vector<Copy>& copies() const { return copies_; }
  [[nodiscard]] int total_copies(int filter) const {
    return first_copy_[st(filter) + 1] - first_copy_[st(filter)];
  }
  /// Position in copies() of copy `index` of `filter`; -1 when the filter
  /// has no such copy.
  [[nodiscard]] int copy_id(int filter, int index) const {
    return index >= 0 && index < total_copies(filter)
               ? first_copy_[st(filter)] + index
               : -1;
  }
  /// The stream leaving `filter` on output port `port`.
  [[nodiscard]] const Stream& out_stream(int filter, int port) const {
    return streams_[st(out_streams_[st(first_out_[st(filter)] + port)])];
  }
  /// A fresh user filter object for `copy`; throws std::runtime_error when
  /// the factory returns null or a source's object is not a SourceFilter.
  [[nodiscard]] std::unique_ptr<Filter> instantiate(const Copy& copy) const;

 private:
  static std::size_t st(int i) { return static_cast<std::size_t>(i); }

  const Graph* graph_ = nullptr;
  int uow_ = 0;
  std::vector<CopySet> copysets_;
  std::vector<Stream> streams_;
  std::vector<Copy> copies_;
  std::vector<int> first_copy_;   ///< per filter, plus the end
  std::vector<int> first_out_;    ///< per filter: offset into out_streams_
  std::vector<int> out_streams_;  ///< stream ids by (filter, output port)
};

/// The half of FilterContext every engine answers alike: a copy's identity,
/// its ports and negotiated buffer sizes from the UowPlan, and its random
/// stream. Engines derive their contexts from it and add time, demand and
/// output.
class PlanContext : public FilterContext {
 public:
  PlanContext(const UowPlan& plan, UowPlan::Copy& copy)
      : plan_(&plan), copy_(&copy) {}

  [[nodiscard]] int instance_index() const final { return copy_->index; }
  [[nodiscard]] int num_instances() const final {
    return plan_->total_copies(copy_->filter);
  }
  [[nodiscard]] int copy_in_host() const final { return copy_->copy_in_host; }
  [[nodiscard]] int copies_on_host() const final {
    return copy_->copies_on_host;
  }
  [[nodiscard]] int host() const final { return copy_->host; }
  [[nodiscard]] const std::string& host_class() const final {
    return *copy_->host_class;
  }
  [[nodiscard]] int uow_index() const final { return plan_->uow(); }
  [[nodiscard]] sim::Rng& rng() final { return copy_->rng; }
  [[nodiscard]] int num_input_ports() const final {
    return plan_->graph().filter(copy_->filter).num_input_ports;
  }
  [[nodiscard]] int num_output_ports() const final {
    return plan_->graph().filter(copy_->filter).num_output_ports;
  }
  [[nodiscard]] std::size_t buffer_bytes(int out_port) const final {
    if (out_port < 0 || out_port >= num_output_ports()) {
      throw std::out_of_range("buffer_bytes: bad output port");
    }
    return plan_->out_stream(copy_->filter, out_port).buffer_bytes;
  }

 protected:
  [[nodiscard]] bool is_source() const {
    return plan_->graph().filter(copy_->filter).is_source;
  }

 private:
  const UowPlan* plan_;
  UowPlan::Copy* copy_;
};

/// Books one failover in `faults`. `latency` — seconds from the failure, or
/// its first suspicion, to the failover — joins the recovery-latency total
/// and max when known (non-negative).
void record_failover(FaultMetrics& faults, double latency);

/// The survivor count of one UOW, kept alike by both engines, and the
/// outcome its fault counters add up to.
class UowCensus {
 public:
  /// Starts a UOW with every copy of `plan` live.
  void reset(const UowPlan& plan);
  /// A host died during the UOW. Deaths between UOWs perturb the next one
  /// only through its admission failovers.
  void host_failed() { ++hosts_failed_; }
  /// `n` copies of `filter` died; the filter joins the outcome's
  /// dead_filters when its last copy does.
  void copies_died(int filter, int n);
  /// Classifies the UOW from the fault ledger before and after it:
  /// kPartialLoss when a filter lost every copy, else kDegraded when
  /// failovers, retransmits, losses or host deaths perturbed it.
  [[nodiscard]] UowOutcome outcome(const FaultMetrics& before,
                                   const FaultMetrics& after,
                                   sim::SimTime makespan) const;

 private:
  std::vector<int> live_;  ///< per filter
  std::vector<int> dead_;
  std::uint64_t hosts_failed_ = 0;
};

}  // namespace dc::core
