#include "core/uow_plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/runtime.hpp"

namespace dc::core {

void validate(const Graph& graph, const Placement& placement) {
  graph.validate();
  for (int f = 0; f < graph.num_filters(); ++f) {
    const FilterSpec& spec = graph.filter(f);
    if (placement.entries(f).empty()) {
      throw std::invalid_argument("Placement: filter '" + spec.name +
                                  "' has no placement");
    }
    if (!spec.is_source && spec.num_input_ports == 0) {
      throw std::invalid_argument("Placement: non-source filter '" +
                                  spec.name + "' has no inputs");
    }
  }
}

UowPlan::UowPlan(const Graph& graph, const Placement& placement,
                 const RuntimeConfig& config,
                 const std::vector<std::string>& host_classes, int uow,
                 sim::Rng& base_rng)
    : graph_(&graph), uow_(uow) {
  static const std::string kNative = "native";
  first_out_.push_back(0);
  for (int f = 0; f < graph.num_filters(); ++f) {
    first_copy_.push_back(static_cast<int>(copies_.size()));
    first_out_.push_back(first_out_.back() + graph.filter(f).num_output_ports);
    int global = 0;
    for (const auto& e : placement.entries(f)) {
      const int set = static_cast<int>(copysets_.size());
      copysets_.push_back(CopySet{f, e.host, global, e.copies});
      const std::string* cls = st(e.host) < host_classes.size()
                                   ? &host_classes[st(e.host)]
                                   : &kNative;
      for (int c = 0; c < e.copies; ++c, ++global) {
        copies_.push_back(Copy{
            f, global, c, e.copies, e.host, set, cls,
            base_rng.split(static_cast<std::uint64_t>(f) * 1000003ULL +
                           static_cast<std::uint64_t>(global) * 257ULL +
                           static_cast<std::uint64_t>(uow))});
      }
    }
  }
  first_copy_.push_back(static_cast<int>(copies_.size()));

  // Streams: targets, WRR expansion (one slot per consumer copy, so a
  // target's weight is its copy count), EOW producers, buffer size.
  out_streams_.assign(st(first_out_.back()), -1);
  streams_.resize(st(graph.num_streams()));
  for (int s = 0; s < graph.num_streams(); ++s) {
    const StreamSpec& spec = graph.stream(s);
    Stream& out = streams_[st(s)];
    out.spec = &spec;
    out.id = s;
    out.first_target = copies_[st(first_copy_[st(spec.to_filter)])].copyset;
    out.num_targets = static_cast<int>(placement.entries(spec.to_filter).size());
    out.producers = total_copies(spec.from_filter);
    out.buffer_bytes = std::clamp(config.default_buffer_bytes,
                                  spec.min_buffer_bytes, spec.max_buffer_bytes);
    out.wrr_order.reserve(st(total_copies(spec.to_filter)));
    for (int t = 0; t < out.num_targets; ++t) {
      out.wrr_order.insert(out.wrr_order.end(),
                           st(copysets_[st(out.first_target + t)].num_copies),
                           t);
    }
    out_streams_[st(first_out_[st(spec.from_filter)] + spec.from_port)] = s;
  }
}

std::unique_ptr<Filter> UowPlan::instantiate(const Copy& copy) const {
  const FilterSpec& spec = graph_->filter(copy.filter);
  std::unique_ptr<Filter> user = spec.factory();
  if (!user) {
    throw std::runtime_error("factory for '" + spec.name + "' returned null");
  }
  if (spec.is_source && dynamic_cast<SourceFilter*>(user.get()) == nullptr) {
    throw std::runtime_error("source filter '" + spec.name +
                             "' does not derive from SourceFilter");
  }
  return user;
}

void record_failover(FaultMetrics& faults, double latency) {
  faults.failovers++;
  if (latency < 0.0) return;
  faults.recovery_latency_total += latency;
  faults.recovery_latency_max = std::max(faults.recovery_latency_max, latency);
}

void UowCensus::reset(const UowPlan& plan) {
  live_.clear();
  for (int f = 0; f < plan.graph().num_filters(); ++f) {
    live_.push_back(plan.total_copies(f));
  }
  dead_.clear();
  hosts_failed_ = 0;
}

void UowCensus::copies_died(int filter, int n) {
  int& live = live_[static_cast<std::size_t>(filter)];
  if (live > 0 && (live -= n) <= 0) dead_.push_back(filter);
}

UowOutcome UowCensus::outcome(const FaultMetrics& before,
                              const FaultMetrics& after,
                              sim::SimTime makespan) const {
  UowOutcome out;
  out.makespan = makespan;
  out.dead_filters = dead_;
  out.failovers = after.failovers - before.failovers;
  out.retransmits = after.retransmits - before.retransmits;
  out.buffers_lost = after.buffers_lost - before.buffers_lost;
  out.buffers_duplicated = after.buffers_duplicated - before.buffers_duplicated;
  const bool perturbed = out.failovers > 0 || out.retransmits > 0 ||
                         out.buffers_lost > 0 || hosts_failed_ > 0;
  out.status = !dead_.empty() ? UowStatus::kPartialLoss
               : perturbed    ? UowStatus::kDegraded
                              : UowStatus::kComplete;
  return out;
}

}  // namespace dc::core
