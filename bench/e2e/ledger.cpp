#include "ledger.hpp"

#include <algorithm>
#include <stdexcept>

#include "comp/filters.hpp"
#include "core/filter.hpp"
#include "viz/geometry.hpp"
#include "viz/zbuffer.hpp"

namespace e2e {

using namespace dc;

namespace {

const char* role(int filter) {
  static constexpr const char* kRoles[] = {"src", "mid", "sink"};
  return filter >= 0 && filter < 3 ? kRoles[filter] : "other";
}

bool is_max_key(const std::string& k) {
  return k.size() >= 4 && k.compare(k.size() - 4, 4, "_max") == 0;
}

double get(const Counters& c, const std::string& k) {
  const auto it = c.find(k);
  return it == c.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Timing decorators
// ---------------------------------------------------------------------------

enum Callback { kInit, kStep, kProcess, kEow, kFinalize };

/// Per-copy timing shared by both decorators. init is the first callback of
/// every copy's UOW, finalize the last.
class Probe {
 public:
  Probe(Ledger& ledger, int filter) : ledger_(ledger) { c_.filter = filter; }

  template <typename Fn>
  void time(core::FilterContext& ctx, Callback cb, Fn&& fn) {
    obs::TraceSession& s = ledger_.session();
    const double t0 = s.now();
    if (cb == kInit) {
      uow_ = ctx.uow_index();
      track_ = &ledger_.copy_track(c_.filter, ctx.instance_index(), ctx.host());
      start_ = t0;
      ledger_.copy_started(uow_, t0, ctx.host());
    }
    fn();
    const double t1 = s.now();
    c_.self_s += t1 - t0;
    const char* name = ledger_.span_name(c_.filter, cb);
    track_->begin(t0, name, uow_);
    track_->end(t1, name);
    if (cb == kFinalize) {
      c_.life_s = t1 - start_;
      ledger_.copy_finished(c_, t1);
    }
  }

 private:
  Ledger& ledger_;
  CopyTimes c_;
  obs::Track* track_ = nullptr;
  int uow_ = 0;
  double start_ = 0.0;
};

class TimedFilter final : public core::Filter {
 public:
  TimedFilter(std::unique_ptr<core::Filter> inner, Ledger& ledger, int filter)
      : inner_(std::move(inner)), probe_(ledger, filter) {}

  void init(core::FilterContext& ctx) override {
    probe_.time(ctx, kInit, [&] { inner_->init(ctx); });
  }
  void process_buffer(core::FilterContext& ctx, int port,
                      const core::Buffer& buf) override {
    probe_.time(ctx, kProcess, [&] { inner_->process_buffer(ctx, port, buf); });
  }
  void process_eow(core::FilterContext& ctx) override {
    probe_.time(ctx, kEow, [&] { inner_->process_eow(ctx); });
  }
  void finalize(core::FilterContext& ctx) override {
    probe_.time(ctx, kFinalize, [&] { inner_->finalize(ctx); });
  }

 private:
  std::unique_ptr<core::Filter> inner_;
  Probe probe_;
};

class TimedSource final : public core::SourceFilter {
 public:
  TimedSource(std::unique_ptr<core::Filter> inner, Ledger& ledger, int filter)
      : inner_(std::move(inner)),
        source_(dynamic_cast<core::SourceFilter*>(inner_.get())),
        probe_(ledger, filter) {
    if (source_ == nullptr) {
      throw std::logic_error("TimedSource: source factory made a non-source");
    }
  }

  void init(core::FilterContext& ctx) override {
    probe_.time(ctx, kInit, [&] { source_->init(ctx); });
  }
  bool step(core::FilterContext& ctx) override {
    bool more = false;
    probe_.time(ctx, kStep, [&] { more = source_->step(ctx); });
    return more;
  }
  void process_eow(core::FilterContext& ctx) override {
    probe_.time(ctx, kEow, [&] { source_->process_eow(ctx); });
  }
  void finalize(core::FilterContext& ctx) override {
    probe_.time(ctx, kFinalize, [&] { source_->finalize(ctx); });
  }

 private:
  std::unique_ptr<core::Filter> inner_;
  core::SourceFilter* source_;
  Probe probe_;
};

/// `g` rebuilt with the same filters and streams in the same order, stream
/// policies copied, every factory replaced by `wrap(filter id, spec)`.
core::Graph rebuild(
    const core::Graph& g,
    const std::function<core::FilterFactory(int, const core::FilterSpec&)>&
        wrap) {
  core::Graph out;
  for (int f = 0; f < g.num_filters(); ++f) {
    const core::FilterSpec& spec = g.filter(f);
    out.add_filter(spec.name, wrap(f, spec), spec.is_source);
  }
  for (int s = 0; s < g.num_streams(); ++s) {
    const core::StreamSpec& spec = g.stream(s);
    const int id = out.connect(spec.from_filter, spec.from_port, spec.to_filter,
                               spec.to_port, spec.min_buffer_bytes,
                               spec.max_buffer_bytes);
    out.stream(id).policy = spec.policy;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

void merge(Counters& into, const Counters& from) {
  for (const auto& [k, v] : from) {
    double& slot = into[k];
    slot = is_max_key(k) ? std::max(slot, v) : slot + v;
  }
}

Counters delta(const Counters& after, const Counters& before) {
  Counters d;
  for (const auto& [k, v] : after) d[k] = is_max_key(k) ? v : v - get(before, k);
  return d;
}

Counters io_counters(const io::IoMetrics& m) {
  Counters c;
  c["io.read_calls"] = static_cast<double>(m.read_calls);
  c["io.read_wait_s"] = m.read_wait_s;
  double depth = 0.0;
  for (const io::DiskMetrics& d : m.disks) {
    c["io.disk.requests"] += static_cast<double>(d.requests);
    c["io.disk.bytes"] += static_cast<double>(d.bytes);
    c["io.disk.queue_wait_s"] += d.queue_wait_s;
    c["io.disk.service_s"] += d.service_s;
    depth = std::max(depth, static_cast<double>(d.max_queue_depth));
  }
  c["io.disk.queue_depth_max"] = depth;
  c["io.cache.hits"] = static_cast<double>(m.cache.hits);
  c["io.cache.misses"] = static_cast<double>(m.cache.misses);
  c["io.readahead_hits"] = static_cast<double>(m.cache.readahead_hits);
  c["io.prefetch_issued"] = static_cast<double>(m.cache.prefetch_issued);
  c["io.prefetch_dropped"] = static_cast<double>(m.cache.prefetch_dropped);
  return c;
}

Counters arena_counters(const core::ArenaStats& s) {
  return {{"arena.pool_hits", static_cast<double>(s.pool_hits)},
          {"arena.pool_misses", static_cast<double>(s.pool_misses)},
          {"arena.payload_copies", static_cast<double>(s.payload_copies)}};
}

Counters governor_counters(const core::GovernorStats& s) {
  return {{"governor.grants", static_cast<double>(s.grants)},
          {"governor.denials", static_cast<double>(s.denials)},
          {"governor.spilled_bytes", static_cast<double>(s.spilled_bytes)},
          {"governor.readmitted_bytes", static_cast<double>(s.readmitted_bytes)},
          {"governor.high_water_bytes_max",
           static_cast<double>(s.high_water_bytes)}};
}

Counters net_counters(const net::NetMetricsSnapshot& s) {
  return {{"net.frames_sent", static_cast<double>(s.frames_sent)},
          {"net.bytes_sent", static_cast<double>(s.bytes_sent)},
          {"net.send_batches", static_cast<double>(s.send_batches)},
          {"net.credit_stalls", static_cast<double>(s.credit_stalls)},
          {"net.credit_stall_s", static_cast<double>(s.credit_stall_us) * 1e-6},
          {"net.protocol_errors", static_cast<double>(s.protocol_errors)}};
}

Counters comp_counters(const comp::CompStats& s) {
  return {{"comp.fragments", static_cast<double>(s.fragments_received.load())},
          {"comp.frag_bytes", static_cast<double>(s.frag_bytes.load())},
          {"comp.gather_bytes", static_cast<double>(s.gather_bytes.load())},
          {"comp.tiles_partial", static_cast<double>(s.tiles_partial.load())}};
}

Counters exec_counters(const exec::Metrics& m) {
  Counters c;
  c["exec.acks"] = static_cast<double>(m.acks_total);
  for (std::size_t s = 0; s < m.streams.size(); ++s) {
    const std::string k = "exec.stream" + std::to_string(s);
    c[k + ".buffers"] += static_cast<double>(m.streams[s].buffers);
    c[k + ".bytes"] += static_cast<double>(m.streams[s].payload_bytes);
  }
  for (const exec::InstanceMetrics& i : m.instances) {
    const std::string k = std::string("exec.") + role(i.filter);
    c[k + ".queue_wait_s"] += i.queue_wait_time;
    c[k + ".stall_s"] += i.stall_time;
  }
  return c;
}

void add_copies(Counters& c, const std::vector<CopyTimes>& copies) {
  for (const CopyTimes& t : copies) {
    const std::string k = role(t.filter);
    c[k + ".self_s"] += t.self_s;
    c[k + ".life_s"] += t.life_s;
  }
}

// ---------------------------------------------------------------------------
// Graph wrapping
// ---------------------------------------------------------------------------

core::Graph hold(const core::Graph& g, std::shared_ptr<const void> keep) {
  return rebuild(g, [&](int, const core::FilterSpec& spec) -> core::FilterFactory {
    return [f = spec.factory, keep] { return f(); };
  });
}

// ---------------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------------

Ledger::Ledger(obs::TraceSession& session, const std::string& workload)
    : session_(session), frames_(session.track("bench:" + workload)) {}

core::Graph Ledger::wrap(const core::Graph& g, std::shared_ptr<const void> keep) {
  static constexpr const char* kCallbacks[] = {"init", "step", "process", "eow",
                                               "finalize"};
  // Every graph a ledger wraps is the same app, rebuilt per engine call.
  for (int f = static_cast<int>(span_names_.size()); f < g.num_filters(); ++f) {
    std::array<const char*, 5> names{};
    for (int cb = 0; cb < 5; ++cb) {
      names_.push_back("filter." + g.filter(f).name + "." + kCallbacks[cb]);
      names[static_cast<std::size_t>(cb)] = names_.back().c_str();
    }
    span_names_.push_back(names);
    filter_names_.push_back(g.filter(f).name);
  }
  return rebuild(g, [&](int id, const core::FilterSpec& spec) -> core::FilterFactory {
    return [f = spec.factory, source = spec.is_source, id, keep,
            this]() -> std::unique_ptr<core::Filter> {
      if (source) return std::make_unique<TimedSource>(f(), *this, id);
      return std::make_unique<TimedFilter>(f(), *this, id);
    };
  });
}

obs::Track& Ledger::copy_track(int filter, int instance, int host) {
  return session_.track("filter:" + filter_names_[static_cast<std::size_t>(filter)] +
                        "#" + std::to_string(instance) + "@h" +
                        std::to_string(host));
}

double Ledger::close_frame_locked() {
  if (open_uow_ < 0) return -1.0;
  frames_.end(open_end_, "frame");
  open_uow_ = -1;
  ++frames_closed_;
  return open_end_;
}

void Ledger::copy_started(int uow, double t, int host) {
  double closed = -1.0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (first_host_ < 0) first_host_ = host;
    if (uow != open_uow_) {
      closed = close_frame_locked();
      frames_.begin(t, "frame", uow, frames_closed_);
      open_uow_ = uow;
      open_end_ = t;
    }
  }
  if (closed >= 0.0 && hook_) hook_(closed);
}

void Ledger::copy_finished(const CopyTimes& c, double t) {
  std::lock_guard<std::mutex> lk(mu_);
  copies_.push_back(c);
  open_end_ = std::max(open_end_, t);
}

void Ledger::flush() {
  double closed = -1.0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed = close_frame_locked();
  }
  if (closed >= 0.0 && hook_) hook_(closed);
}

std::vector<CopyTimes> Ledger::take_copies() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<CopyTimes> out;
  out.swap(copies_);
  return out;
}

int Ledger::first_host() const {
  std::lock_guard<std::mutex> lk(mu_);
  return first_host_;
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

std::vector<Metric> layer_metrics(const Counters& c, const Workload& w,
                                  double frames, double wall_s) {
  const auto g = [&](const std::string& k) { return get(c, k); };
  const auto per_frame = [&](const std::string& k) { return ratio(g(k), frames); };
  const auto pct = [&](double num, double den) { return 100.0 * ratio(num, den); };
  const double disk_time = wall_s * static_cast<double>(w.disks.size());
  const double ranks = w.ranks > 0 ? w.ranks : 1;
  // Only RE-Ra-M carries triangles on a stream; the tiled compositor's
  // fragments are counted at the tile owners, single-M's on the M stream.
  const double triangles =
      w.config == viz::PipelineConfig::kRE_Ra_M
          ? g("exec.stream0.bytes") / static_cast<double>(sizeof(viz::Triangle))
          : 0.0;
  const double fragments =
      w.ranks > 0 ? g("comp.fragments")
                  : g("exec.stream1.bytes") / static_cast<double>(sizeof(viz::PixEntry));
  // Closure: decorator self time plus the engine's queue wait and output
  // stall, over the copies' lifetimes. Distributed ranks report no engine
  // split, so there it is the self share alone.
  double attributed = 0.0, life = 0.0;
  for (const char* r : {"src", "mid", "sink"}) {
    const std::string k = r;
    attributed += g(k + ".self_s") + g("exec." + k + ".queue_wait_s") +
                  g("exec." + k + ".stall_s");
    life += g(k + ".life_s");
  }

  std::vector<Metric> m = {
      {"io.read_calls_per_frame", "count", per_frame("io.read_calls")},
      {"io.read_wait_pct", "%", pct(g("io.read_wait_s"), g("src.life_s"))},
      {"io.disk.requests_per_frame", "count", per_frame("io.disk.requests")},
      {"io.disk.mb_per_frame", "MiB", per_frame("io.disk.bytes") / kMiB},
      {"io.disk.util_pct", "%", pct(g("io.disk.service_s"), disk_time)},
      {"io.disk.mean_queue_len", "count", ratio(g("io.disk.queue_wait_s"), disk_time)},
      {"io.disk.max_queue_depth", "count", g("io.disk.queue_depth_max")},
      {"io.cache.hit_rate", "ratio",
       ratio(g("io.cache.hits"), g("io.cache.hits") + g("io.cache.misses"))},
      {"io.readahead_useful_ratio", "ratio",
       ratio(g("io.readahead_hits"), g("io.prefetch_issued"))},
      {"io.prefetch_dropped_per_frame", "count", per_frame("io.prefetch_dropped")},
      {"io.ingest_s", "s", g("setup.ingest_s")},
      {"io.ingest_mb_per_s", "MiB/s", ratio(g("setup.ingest_bytes") / kMiB, g("setup.ingest_s"))},
      {"io.store_open_s", "s", g("setup.open_s")},
      {"governor.spilled_mb_per_frame", "MiB", per_frame("governor.spilled_bytes") / kMiB},
      {"governor.readmitted_mb_per_frame", "MiB",
       per_frame("governor.readmitted_bytes") / kMiB},
      {"governor.grants_per_frame", "count", per_frame("governor.grants")},
      {"governor.denials_per_frame", "count", per_frame("governor.denials")},
      {"governor.high_water_mb", "MiB", g("governor.high_water_bytes_max") / kMiB},
      {"arena.pool_hit_ratio", "ratio",
       ratio(g("arena.pool_hits"), g("arena.pool_hits") + g("arena.pool_misses"))},
      {"arena.payload_copies", "count", g("arena.payload_copies")},
      {"exec.acks_per_frame", "count", per_frame("exec.acks")},
      {"exec.call_overhead_ms", "ms", 1e3 * ratio(g("call_overhead_s"), g("calls"))},
      {"exec.mid.queue_wait_pct", "%", pct(g("exec.mid.queue_wait_s"), g("mid.life_s"))},
      {"exec.sink.queue_wait_pct", "%", pct(g("exec.sink.queue_wait_s"), g("sink.life_s"))},
      {"exec.src.stall_pct", "%", pct(g("exec.src.stall_s"), g("src.life_s"))},
      {"exec.mid.stall_pct", "%", pct(g("exec.mid.stall_s"), g("mid.life_s"))},
      {"exec.stream.src-mid.buffers_per_frame", "count", per_frame("exec.stream0.buffers")},
      {"exec.stream.src-mid.mb_per_frame", "MiB", per_frame("exec.stream0.bytes") / kMiB},
      {"exec.stream.mid-sink.buffers_per_frame", "count", per_frame("exec.stream1.buffers")},
      {"exec.stream.mid-sink.mb_per_frame", "MiB", per_frame("exec.stream1.bytes") / kMiB},
      {"filter.src.self_ms_per_frame", "ms", 1e3 * per_frame("src.self_s")},
      {"filter.mid.self_ms_per_frame", "ms", 1e3 * per_frame("mid.self_s")},
      {"filter.sink.self_ms_per_frame", "ms", 1e3 * per_frame("sink.self_s")},
      {"filter.src.blocked_pct", "%", pct(g("src.life_s") - g("src.self_s"), g("src.life_s"))},
      {"filter.mid.blocked_pct", "%", pct(g("mid.life_s") - g("mid.self_s"), g("mid.life_s"))},
      {"filter.sink.blocked_pct", "%",
       pct(g("sink.life_s") - g("sink.self_s"), g("sink.life_s"))},
      {"viz.triangles_per_frame", "count", ratio(triangles, frames)},
      {"viz.fragments_per_frame", "count", ratio(fragments, frames)},
      {"comp.fragments_per_frame", "count", per_frame("comp.fragments")},
      {"comp.frag_mb_per_frame", "MiB", per_frame("comp.frag_bytes") / kMiB},
      {"comp.gather_mb_per_frame", "MiB", per_frame("comp.gather_bytes") / kMiB},
      {"comp.tiles_partial", "count", g("comp.tiles_partial")},
      {"net.wire_frames_per_frame", "count", per_frame("net.frames_sent")},
      {"net.mb_sent_per_frame", "MiB", per_frame("net.bytes_sent") / kMiB},
      {"net.wire_frames_per_batch", "ratio", ratio(g("net.frames_sent"), g("net.send_batches"))},
      {"net.credit_stalls_per_frame", "count", per_frame("net.credit_stalls")},
      {"net.credit_stall_pct", "%", pct(g("net.credit_stall_s"), wall_s * ranks)},
      {"net.protocol_errors", "count", g("net.protocol_errors")},
      {"trace.overhead_pct", "%",
       pct(g("trace.untraced_fps") - g("trace.traced_fps"), g("trace.untraced_fps"))},
      {"trace.closure_pct", "%", pct(attributed, life)},
  };
  return m;
}

}  // namespace e2e
