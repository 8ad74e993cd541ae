// dc_bench: the end-to-end render benchmark. One invocation renders one
// workload in a closed loop (one client, one frame outstanding) for a fixed
// wall time, checks every frame against a reference render, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer ledger — as the
// last line of stdout. README.md documents workloads and metrics.
//
//   dc_bench --workload render_warm --seed 2002 --seconds 10 --trace 0
//   dc_bench --smoke

#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comp/app.hpp"
#include "core/crc32c.hpp"
#include "exec/engine.hpp"
#include "ledger.hpp"
#include "obs/chrome.hpp"
#include "obs/json.hpp"
#include "viz/distributed.hpp"
#include "workloads.hpp"

using namespace dc;
using namespace e2e;
namespace fs = std::filesystem;

namespace {

/// Set-ups per run; the reported setup_s is their median.
constexpr int kSetups = 5;
constexpr int kSmokeFrames = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 2002;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  fs::path out = ".bench_out";   ///< traces and layer files
  fs::path work = ".bench_work"; ///< stores and spill files, removed at exit
};

struct Frame {
  int timestep = 0;
  double makespan_s = 0.0;
  std::uint64_t digest = 0;
  bool complete = false;
};

/// One measured phase: every frame it rendered, its wall time, and the
/// layer counters gathered over it.
struct Phase {
  std::vector<Frame> frames;
  std::vector<double> call_fps;  ///< frames / wall time, per engine call
  double wall_s = 0.0;
  Counters counters;
};

void append(Phase& into, Phase&& from) {
  into.frames.insert(into.frames.end(), from.frames.begin(), from.frames.end());
  into.call_fps.insert(into.call_fps.end(), from.call_fps.begin(), from.call_fps.end());
  into.wall_s += from.wall_s;
  merge(into.counters, from.counters);
}

/// Where a traced phase writes its artifacts.
struct TraceOut {
  fs::path dir;
  std::string workload;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double peak_rss_mib(bool children) {
  struct rusage self{}, kids{};
  ::getrusage(RUSAGE_SELF, &self);
  long kib = self.ru_maxrss;
  if (children) {
    ::getrusage(RUSAGE_CHILDREN, &kids);
    kib = std::max(kib, kids.ru_maxrss);
  }
  return static_cast<double>(kib) / 1024.0;
}

/// Counter samples on the trace's counters track at a frame boundary.
void snapshot(obs::Track& track, double t, const io::IoMetrics& io) {
  const Counters c = io_counters(io);
  track.counter(t, "io.read_calls", static_cast<std::int64_t>(c.at("io.read_calls")));
  track.counter(t, "io.disk.requests", static_cast<std::int64_t>(c.at("io.disk.requests")));
  track.counter(t, "io.cache.hits", static_cast<std::int64_t>(c.at("io.cache.hits")));
  track.counter(t, "io.read_wait_us",
                static_cast<std::int64_t>(c.at("io.read_wait_s") * 1e6));
  track.counter(t, "arena.outstanding",
                static_cast<std::int64_t>(core::BufferArena::global().stats().outstanding()));
}

/// A JSON object built member by member.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (text_.size() > 1) text_ += ',';
    text_ += '"';
    text_ += obs::json::escape(key);
    text_ += "\":";
    text_ += json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, obs::json::number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, '"' + obs::json::escape(v) + '"');
  }
  [[nodiscard]] std::string done() const { return text_ + "}"; }

 private:
  std::string text_ = "{";
};

std::string counters_json(const Counters& c) {
  JsonObject o;
  for (const auto& [k, v] : c) o.num(k, v);
  return o.done();
}

/// Trace artifacts are diagnostics: a failed write is reported, not fatal.
void write_file(const fs::path& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) std::fprintf(stderr, "dc_bench: cannot write %s\n", path.c_str());
}

void write_trace(const obs::TraceSession& session, const fs::path& path) {
  if (!obs::write_chrome_trace(session, path.string())) {
    std::fprintf(stderr, "dc_bench: cannot write %s\n", path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Native engine
// ---------------------------------------------------------------------------

/// One engine call: `timesteps` frames on a fresh exec::Engine (a
/// VizWorkload renders timestep == UOW index). With a ledger, every factory
/// is wrapped in its timing decorators.
Phase native_call(const Workload& w, const Stage& st, const viz::IsoApp& app,
                  int timesteps, Ledger* ledger) {
  const core::Graph traced = ledger ? ledger->wrap(app.graph) : core::Graph{};
  obs::Track* counters = ledger ? &ledger->session().track("counters") : nullptr;
  if (ledger) {
    ledger->set_frame_hook([&st, counters](double t) {
      snapshot(*counters, t, st.reader->metrics());
    });
  }

  Phase ph;
  const Counters io0 = io_counters(st.reader->metrics());
  const Counters arena0 = arena_counters(core::BufferArena::global().stats());
  const double t0 = now_s();
  double makespans = 0.0;
  {
    exec::Engine eng(ledger ? traced : app.graph, app.placement, runtime_config(w));
    for (int u = 0; u < timesteps; ++u) {
      Frame f;
      f.timestep = u;
      const std::size_t before = app.sink->digests.size();
      try {
        f.makespan_s = eng.run_uow();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "dc_bench: %s frame %d failed: %s\n", w.name, u, e.what());
        ph.frames.push_back(f);
        break;
      }
      makespans += f.makespan_s;
      f.complete = app.sink->digests.size() == before + 1;
      if (f.complete) f.digest = app.sink->digests.back();
      ph.frames.push_back(f);
      if (ledger) {
        ledger->flush();
        counters->counter(ledger->session().now(), "governor.spilled_bytes",
                          static_cast<std::int64_t>(eng.governor_stats().spilled_bytes));
      }
    }
    merge(ph.counters, exec_counters(eng.metrics()));
    merge(ph.counters, governor_counters(eng.governor_stats()));
    if (ledger) add_copies(ph.counters, ledger->take_copies());
  }
  ph.wall_s = now_s() - t0;
  ph.call_fps.push_back(timesteps / ph.wall_s);
  ph.counters["calls"] = 1.0;
  ph.counters["call_overhead_s"] = ph.wall_s - makespans;
  merge(ph.counters, delta(io_counters(st.reader->metrics()), io0));
  merge(ph.counters, delta(arena_counters(core::BufferArena::global().stats()), arena0));
  if (ledger) ledger->set_frame_hook({});
  return ph;
}

// ---------------------------------------------------------------------------
// Distributed engine
// ---------------------------------------------------------------------------

/// Per-rank collector of a traced distributed call, owned by the rank's
/// graph factories: it is destroyed with the rank's app, after the engine,
/// and then writes `<dir>/rank<k>.layers.json` (counters of the rank's
/// reader, compositor and decorators) and the rank's Chrome trace.
class RankTrace {
 public:
  RankTrace(std::shared_ptr<io::ChunkReader> reader,
            std::shared_ptr<comp::CompStats> stats, TraceOut out)
      : reader_(std::move(reader)),
        stats_(std::move(stats)),
        out_(std::move(out)),
        ledger_(session_, out_.workload),
        arena0_(arena_counters(core::BufferArena::global().stats())) {
    obs::Track& counters = session_.track("counters");
    ledger_.set_frame_hook([this, &counters](double t) {
      snapshot(counters, t, reader_->metrics());
    });
  }
  RankTrace(const RankTrace&) = delete;
  RankTrace& operator=(const RankTrace&) = delete;

  ~RankTrace() {
    try {
      ledger_.flush();
      Counters c = io_counters(reader_->metrics());
      merge(c, comp_counters(*stats_));
      merge(c, delta(arena_counters(core::BufferArena::global().stats()), arena0_));
      add_copies(c, ledger_.take_copies());
      const std::string rank = "rank" + std::to_string(ledger_.first_host());
      write_file(out_.dir / (rank + ".layers.json"), counters_json(c));
      write_trace(session_, out_.dir / (out_.workload + "." + rank + ".trace.json"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dc_bench: rank trace not written: %s\n", e.what());
    }
  }

  [[nodiscard]] Ledger& ledger() { return ledger_; }

 private:
  std::shared_ptr<io::ChunkReader> reader_;
  std::shared_ptr<comp::CompStats> stats_;
  TraceOut out_;
  obs::TraceSession session_;
  Ledger ledger_;
  Counters arena0_;
};

/// One distributed call: `timesteps` frames on a fresh process group. Each
/// rank opens its own reader in the builder hook, after fork, so no reader
/// thread crosses a fork.
Phase distributed_call(const Workload& w, const Dataset& ds, const Stage& st,
                       int timesteps, const TraceOut* trace) {
  comp::TiledCompSpec cs;  // 32 px tiles
  for (int r = 0; r < w.ranks; ++r) cs.owner_hosts.push_back(r);
  cs.gather_host = 0;

  viz::DistributedRunOptions opts;
  opts.timeout_s = 60.0;  // a call takes well under a second; a hang fails the run
  opts.builder = [&](const viz::IsoAppSpec& s) -> viz::IsoApp {
    auto reader = std::make_shared<io::ChunkReader>(*st.store, reader_options(w));
    viz::IsoAppSpec local = s;
    local.workload.reader = reader.get();
    comp::TiledApp t = comp::build_tiled_iso_app(local, cs);
    if (trace == nullptr) {
      t.app.graph = hold(t.app.graph, reader);
    } else {
      auto rank = std::make_shared<RankTrace>(reader, t.stats, *trace);
      t.app.graph = rank->ledger().wrap(t.app.graph, rank);
    }
    return t.app;
  };

  Phase ph;
  const double t0 = now_s();
  const viz::DistributedRenderRun run = viz::run_iso_app_distributed(
      app_spec(w, ds, nullptr), runtime_config(w), timesteps, w.ranks, opts);
  ph.wall_s = now_s() - t0;
  double makespans = 0.0;
  for (int u = 0; u < timesteps; ++u) {
    const auto i = static_cast<std::size_t>(u);
    Frame f;
    f.timestep = u;
    f.complete = run.ok && i < run.digests.size() && i < run.per_uow.size() &&
                 run.uow_status[i] == 0;
    if (f.complete) {
      f.digest = run.digests[i];
      f.makespan_s = run.per_uow[i];
      makespans += f.makespan_s;
    }
    ph.frames.push_back(f);
  }
  if (!run.ok) {
    std::fprintf(stderr, "dc_bench: distributed call failed: %s\n", run.error.c_str());
    for (std::size_t r = 0; r < run.ranks.size(); ++r) {
      std::fprintf(stderr, "  rank %zu exit %d: %s\n", r, run.ranks[r].exit_code,
                   run.ranks[r].stderr_output.c_str());
    }
  }
  ph.call_fps.push_back(timesteps / ph.wall_s);
  ph.counters["calls"] = 1.0;
  ph.counters["call_overhead_s"] = ph.wall_s - makespans;
  merge(ph.counters, exec_counters(run.metrics));
  merge(ph.counters, governor_counters(run.governor));
  merge(ph.counters, net_counters(run.net));
  if (trace != nullptr) {
    for (int r = 0; r < w.ranks; ++r) {
      const fs::path p = trace->dir / ("rank" + std::to_string(r) + ".layers.json");
      std::ifstream f(p);
      std::stringstream text;
      text << f.rdbuf();
      obs::json::Value v;
      if (f && obs::json::parse(text.str(), v) && v.is_object()) {
        Counters c;
        for (const auto& [k, x] : v.object) c[k] = x.num;
        merge(ph.counters, c);
      }
      fs::remove(p);
    }
  }
  return ph;
}

// ---------------------------------------------------------------------------
// One workload run
// ---------------------------------------------------------------------------

struct Result {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double frame_p99_ms = 0.0;
  std::vector<double> setups_s;
};

/// Counts frames that are incomplete or differ from the reference render of
/// their timestep.
std::size_t count_failed(const std::vector<Frame>& frames,
                         const std::vector<std::uint64_t>& reference) {
  std::size_t failed = 0;
  for (const Frame& f : frames) {
    const bool ok = f.complete &&
                    f.digest == reference[static_cast<std::size_t>(f.timestep)];
    failed += ok ? 0 : 1;
  }
  return failed;
}

Result run_workload(const Workload& w, const Options& o, int timesteps,
                    int setups) {
  const std::string name = w.name;
  const Dataset ds(w, o.seed);
  const TraceOut out{o.out / "trace" / (name + ".seed" + std::to_string(o.seed)), name};
  obs::TraceSession session;
  Ledger ledger(session, name);
  if (o.trace) fs::create_directories(out.dir);

  // Set-up and measurement alternate: each round sets up from scratch
  // (materialize, open, read in for warm workloads, build the app), then
  // measures for its share of --seconds. Set-up samples then span the run
  // as the frames do. Traced runs alternate untraced and traced calls, so
  // both see the same machine; the difference in their frame rates is the
  // decorators' cost.
  Result res;
  Phase plain, traced;
  std::vector<Frame> warm_ups;  ///< rendered in set-up: checked, not timed
  std::vector<double> ingest_s, open_s;
  std::unique_ptr<Stage> stage;
  std::unique_ptr<viz::IsoApp> app;
  const auto call = [&](bool trace) {
    return w.ranks == 0
               ? native_call(w, *stage, *app, timesteps, trace ? &ledger : nullptr)
               : distributed_call(w, ds, *stage, timesteps, trace ? &out : nullptr);
  };
  for (int k = 0; k < setups; ++k) {
    app.reset();
    stage.reset();
    const double t0 = now_s();
    stage = std::make_unique<Stage>(w, ds, o.work / "store", timesteps);
    if (w.ranks == 0) {
      app = std::make_unique<viz::IsoApp>(
          viz::build_iso_app(app_spec(w, ds, stage->reader.get())));
    }
    // Set-up ends with one call: the first call after a fresh set-up runs
    // at about half speed (empty buffer pools, first-touch pages), a cost
    // paid once per set-up rather than per frame.
    const Phase warm_up = call(false);
    res.setups_s.push_back(now_s() - t0);
    warm_ups.insert(warm_ups.end(), warm_up.frames.begin(), warm_up.frames.end());
    ingest_s.push_back(stage->ingest_s);
    open_s.push_back(stage->open_s);

    const double m0 = now_s();
    do {
      append(plain, call(false));
      if (o.trace) append(traced, call(true));
    } while (now_s() - m0 < o.seconds / setups);
  }
  app.reset();
  stage.reset();
  const double rss = peak_rss_mib(w.ranks > 0);

  std::vector<double> ms;
  for (const Frame& f : plain.frames) {
    if (f.complete) ms.push_back(f.makespan_s * 1e3);
  }
  res.frame_p99_ms = percentile(ms, 0.99);
  if (!o.trace) {
    res.metrics = {
        {"frames_per_s", "1/s", median(plain.call_fps)},
        {"frame_p50_ms", "ms", percentile(ms, 0.50)},
        {"frame_p90_ms", "ms", percentile(ms, 0.90)},
        {"setup_s", "s", median(res.setups_s)},
        {"peak_rss_mb", "MiB", rss},
    };
  } else {
    if (w.ranks == 0) {
      write_trace(session, out.dir / (name + ".trace.json"));
    }
    Counters& c = traced.counters;
    c["setup.ingest_s"] = median(ingest_s);
    c["setup.open_s"] = median(open_s);
    c["setup.ingest_bytes"] = static_cast<double>(ds.store.total_bytes()) * timesteps;
    c["trace.untraced_fps"] = static_cast<double>(plain.frames.size()) / plain.wall_s;
    c["trace.traced_fps"] = static_cast<double>(traced.frames.size()) / traced.wall_s;
    res.metrics =
        layer_metrics(c, w, static_cast<double>(traced.frames.size()), traced.wall_s);
    write_file(out.dir / (name + ".layers.json"), counters_json(c));
    // Zero-copy holds across ranks: no DATA payload was ever copied.
    res.failed += static_cast<std::size_t>(c["arena.payload_copies"] > 0.0);
  }

  // The oracle runs after the measurement and is not part of set-up.
  append(plain, std::move(traced));
  plain.frames.insert(plain.frames.end(), warm_ups.begin(), warm_ups.end());
  res.attempted = plain.frames.size();
  res.failed += count_failed(plain.frames, reference_digests(w, ds, timesteps));
  return res;
}

/// The environment block every result carries: --compare refuses to set
/// results from different machines or builds side by side.
std::string env_json(std::uint64_t seed) {
  struct utsname u{};
  ::uname(&u);
  return JsonObject()
      .num("hardware_concurrency", std::thread::hardware_concurrency())
      .str("crc32c", core::crc32c_backend())
      .str("compiler", __VERSION__)
      .str("build_type", DC_BENCH_BUILD_TYPE)
      .str("kernel", u.release)
      .num("seed", static_cast<double>(seed))
      .done();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject o;
  for (const Metric& m : metrics) {
    o.raw(m.name, JsonObject().num("value", m.value).str("unit", m.unit).done());
  }
  return o.done();
}

int smoke(const Options& o) {
  // The distributed workload first: the process must have no threads of
  // its own when it forks the ranks.
  std::vector<const Workload*> order;
  for (const Workload& w : workloads()) {
    if (w.ranks > 0) order.insert(order.begin(), &w);
    else order.push_back(&w);
  }
  int bad = 0;
  for (const Workload* w : order) {
    Options one = o;
    one.seconds = 0.0;  // one engine call
    const double t0 = now_s();
    const Result r = run_workload(*w, one, kSmokeFrames, 1);
    std::printf("smoke %-18s %zu frames, %zu failed, %.2f s\n", w->name, r.attempted,
                r.failed, now_s() - t0);
    bad += r.failed > 0 || r.attempted == 0 ? 1 : 0;
  }
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: dc_bench --workload NAME --seed N [--seconds S] [--trace 0|1]\n"
               "                [--out DIR] [--work DIR]\n"
               "       dc_bench --smoke [--work DIR]\n"
               "workloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = std::stoi(value()) != 0;
      else if (a == "--out") o.out = value();
      else if (a == "--work") o.work = value();
      else if (a == "--smoke") o.smoke = true;
      else throw std::invalid_argument("unknown argument " + a);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dc_bench: %s\n", e.what());
    return usage();
  }
  const Workload* w = find_workload(o.workload);
  if (!o.smoke && (w == nullptr || !(o.seconds >= 0.0))) return usage();

  // Stores, spill files and rank scratch all live under the work directory;
  // the engines resolve the latter two through $TMPDIR.
  o.work = fs::absolute(o.work) / std::to_string(::getpid());
  fs::create_directories(o.work / "tmp");
  ::setenv("TMPDIR", (o.work / "tmp").c_str(), 1);

  int rc = 0;
  try {
    if (o.smoke) {
      rc = smoke(o);
    } else {
      const Result r = run_workload(*w, o, w->timesteps, kSetups);
      const bool correct = r.failed == 0;
      std::string setups = "[";
      for (double s : r.setups_s) {
        if (setups.size() > 1) setups += ',';
        setups += obs::json::number(s);
      }
      // The full record (environment and diagnostics included) for
      // run.py --compare, then the result line.
      const std::string record = JsonObject()
                                     .str("bench", "e2e")
                                     .str("workload", w->name)
                                     .num("seed", static_cast<double>(o.seed))
                                     .num("trace", o.trace ? 1 : 0)
                                     .num("seconds", o.seconds)
                                     .raw("env", env_json(o.seed))
                                     .num("attempted", static_cast<double>(r.attempted))
                                     .num("failed", static_cast<double>(r.failed))
                                     .num("frame_p99_ms", r.frame_p99_ms)
                                     .raw("setups_s", setups + "]")
                                     .raw("metrics", metrics_json(r.metrics))
                                     .done();
      std::printf("%s\n", record.c_str());
      std::printf("%s\n", JsonObject()
                              .raw("correct", correct ? "true" : "false")
                              .num("attempted", static_cast<double>(r.attempted))
                              .num("failed", static_cast<double>(r.failed))
                              .raw("metrics", metrics_json(r.metrics))
                              .done()
                              .c_str());
      rc = correct ? 0 : 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dc_bench: %s\n", e.what());
    rc = 1;
  }
  std::error_code ec;
  fs::remove_all(o.work, ec);
  return rc;
}
