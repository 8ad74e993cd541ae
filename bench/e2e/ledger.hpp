// The per-layer ledger of the end-to-end benchmark: timing decorators that
// wrap every filter of an app from the outside, counters gathered from the
// layers' public snapshot accessors, and the per-layer metrics derived from
// both. Nothing here reaches into the program: spans are recorded around
// the calls the engines make into the filters.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/graph.hpp"
#include "core/mem_governor.hpp"
#include "exec/metrics.hpp"
#include "io/metrics.hpp"
#include "net/metrics.hpp"
#include "obs/recorder.hpp"
#include "workloads.hpp"

namespace dc::comp {
struct CompStats;
}

namespace e2e {

/// Named layer counters. Merging adds values, except keys ending in
/// "_max", which keep the larger one.
using Counters = std::map<std::string, double>;

void merge(Counters& into, const Counters& from);
/// `after - before` for every key of `after` ("_max" keys keep `after`).
[[nodiscard]] Counters delta(const Counters& after, const Counters& before);

[[nodiscard]] Counters io_counters(const dc::io::IoMetrics& m);
[[nodiscard]] Counters arena_counters(const dc::core::ArenaStats& s);
[[nodiscard]] Counters governor_counters(const dc::core::GovernorStats& s);
[[nodiscard]] Counters net_counters(const dc::net::NetMetricsSnapshot& s);
[[nodiscard]] Counters comp_counters(const dc::comp::CompStats& s);
/// Streams by position and filter instances by filter id: in every app the
/// benchmark builds, filter 0 is the source, 1 the middle stage, 2 the sink,
/// stream 0 joins source to middle and stream 1 middle to sink.
[[nodiscard]] Counters exec_counters(const dc::exec::Metrics& m);

/// Timing of one filter copy over one UOW, as its decorator saw it.
struct CopyTimes {
  int filter = -1;
  double self_s = 0.0;  ///< summed durations of the copy's callbacks
  double life_s = 0.0;  ///< init entry to finalize exit
};

/// Folds copy timings into `c` by role: `<role>.self_s`, `<role>.life_s`.
void add_copies(Counters& c, const std::vector<CopyTimes>& copies);

/// `g` with every factory also holding `keep` (a per-rank reader, say), so
/// it lives exactly as long as the app does.
[[nodiscard]] dc::core::Graph hold(const dc::core::Graph& g,
                                   std::shared_ptr<const void> keep);

/// Collector of the traced run. wrap() returns the graph with each factory
/// wrapped in a timing decorator — one for core::Filter, one for
/// core::SourceFilter — that forwards init/step/process_buffer/process_eow/
/// finalize and records a `filter.<F>.<callback>` span on the copy's own
/// track, under a per-frame root span `frame` (args: uow, frame number) on
/// the workload's track. Thread-safe; must outlive every filter it wraps.
class Ledger {
 public:
  Ledger(dc::obs::TraceSession& session, const std::string& workload);
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  [[nodiscard]] dc::core::Graph wrap(const dc::core::Graph& g,
                                     std::shared_ptr<const void> keep = {});

  /// Runs when a frame span closes, with its end time (counter snapshots).
  /// Called from the thread that closes the frame.
  void set_frame_hook(std::function<void(double)> hook) {
    hook_ = std::move(hook);
  }
  /// Closes the open frame. A frame also closes when the next UOW's first
  /// copy starts.
  void flush();
  /// The copy timings recorded since the last call.
  [[nodiscard]] std::vector<CopyTimes> take_copies();
  /// Host of the first copy seen (the rank, in a rank process); -1 if none.
  [[nodiscard]] int first_host() const;
  [[nodiscard]] dc::obs::TraceSession& session() { return session_; }

  // Decorator entry points.
  [[nodiscard]] dc::obs::Track& copy_track(int filter, int instance, int host);
  [[nodiscard]] const char* span_name(int filter, int callback) const {
    return span_names_[static_cast<std::size_t>(filter)]
                      [static_cast<std::size_t>(callback)];
  }
  void copy_started(int uow, double t, int host);
  void copy_finished(const CopyTimes& c, double t);

 private:
  /// Ends the open frame span; returns its end time, or < 0 if none was open.
  double close_frame_locked();

  dc::obs::TraceSession& session_;
  dc::obs::Track& frames_;
  std::deque<std::string> names_;  ///< owns the span-name strings
  std::vector<std::array<const char*, 5>> span_names_;
  std::vector<std::string> filter_names_;
  std::function<void(double)> hook_;

  mutable std::mutex mu_;
  int open_uow_ = -1;
  double open_end_ = 0.0;
  std::int64_t frames_closed_ = 0;
  int first_host_ = -1;
  std::vector<CopyTimes> copies_;
};

/// One reported metric.
struct Metric {
  std::string name;
  const char* unit = "";
  double value = 0.0;
};

/// The per-layer metrics of a traced phase, in the order and under the
/// names BENCHMARK.json lists them. `frames` and `wall_s` are the traced
/// phase's. README.md defines each one.
[[nodiscard]] std::vector<Metric> layer_metrics(const Counters& c,
                                                const Workload& w,
                                                double frames, double wall_s);

}  // namespace e2e
