#include "viz/distributed.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <unistd.h>
#include <utility>

#include "core/arena.hpp"
#include "io/spill.hpp"
#include "net/transport.hpp"
#include "obs/chrome.hpp"
#include "obs/recorder.hpp"

namespace dc::viz {

namespace {

// ---------------------------------------------------------------------------
// Rank result files: the only channel from the forked rank processes back to
// the parent. Flat binary (same machine, same endianness by construction).
// ---------------------------------------------------------------------------

constexpr std::uint32_t kResultMagic = 0x34524346;  // "FCR4" (v4: instances)

struct FileCloser {
  std::FILE* f = nullptr;
  ~FileCloser() {
    if (f != nullptr) std::fclose(f);
  }
};

bool put_bytes(std::FILE* f, const void* p, std::size_t n) {
  return std::fwrite(p, 1, n, f) == n;
}
bool get_bytes(std::FILE* f, void* p, std::size_t n) {
  return std::fread(p, 1, n, f) == n;
}

template <typename T>
bool put_pod(std::FILE* f, T v) {
  return put_bytes(f, &v, sizeof(v));
}
template <typename T>
bool get_pod(std::FILE* f, T& v) {
  return get_bytes(f, &v, sizeof(v));
}

bool put_str(std::FILE* f, const std::string& s) {
  return put_pod(f, static_cast<std::uint32_t>(s.size())) &&
         put_bytes(f, s.data(), s.size());
}
bool get_str(std::FILE* f, std::string& s) {
  std::uint32_t n = 0;
  if (!get_pod(f, n) || n > (1u << 20)) return false;
  s.resize(n);
  return n == 0 || get_bytes(f, s.data(), n);
}

/// Everything one rank reports back to the parent.
struct RankResult {
  int rank = -1;
  std::vector<int> uow_status;       ///< exec::RunStatus per completed call
  std::vector<double> per_uow;       ///< makespans
  std::string error;                 ///< first failure
  exec::Metrics metrics;             ///< this rank's local ledger
  net::NetMetricsSnapshot net;
  std::vector<core::UowOutcome> outcomes;  ///< per-UOW fault outcomes
  core::FaultMetrics faults;               ///< cumulative fault ledger
  core::GovernorStats governor;            ///< this rank's governor counters
  std::vector<std::uint64_t> digests;  ///< local sink (merge rank only)
  std::vector<Image> images;
};

bool put_outcome(std::FILE* f, const core::UowOutcome& o) {
  bool ok = put_pod(f, static_cast<std::int32_t>(o.status)) &&
            put_pod(f, o.makespan) && put_pod(f, o.failovers) &&
            put_pod(f, o.retransmits) && put_pod(f, o.buffers_lost) &&
            put_pod(f, o.buffers_duplicated) &&
            put_pod(f, static_cast<std::uint32_t>(o.dead_filters.size()));
  for (int d : o.dead_filters) ok = ok && put_pod(f, std::int32_t{d});
  return ok;
}

bool get_outcome(std::FILE* f, core::UowOutcome& o) {
  std::int32_t status = 0;
  std::uint32_t ndead = 0;
  if (!get_pod(f, status) || !get_pod(f, o.makespan) ||
      !get_pod(f, o.failovers) || !get_pod(f, o.retransmits) ||
      !get_pod(f, o.buffers_lost) || !get_pod(f, o.buffers_duplicated) ||
      !get_pod(f, ndead) || ndead > (1u << 16)) {
    return false;
  }
  o.status = static_cast<core::UowStatus>(status);
  o.dead_filters.resize(ndead);
  for (auto& d : o.dead_filters) {
    std::int32_t v = 0;
    if (!get_pod(f, v)) return false;
    d = v;
  }
  return true;
}

bool put_instance(std::FILE* f, const exec::InstanceMetrics& m) {
  return put_pod(f, std::int32_t{m.filter}) &&
         put_pod(f, std::int32_t{m.instance}) &&
         put_pod(f, std::int32_t{m.host}) && put_str(f, m.host_class) &&
         put_pod(f, m.work_ops) && put_pod(f, m.busy_time) &&
         put_pod(f, m.stall_time) && put_pod(f, m.queue_wait_time) &&
         put_pod(f, m.io_wait_time) && put_pod(f, m.buffers_in) &&
         put_pod(f, m.buffers_out) && put_pod(f, m.bytes_in) &&
         put_pod(f, m.bytes_out) && put_pod(f, m.disk_bytes) &&
         put_pod(f, m.acks_sent);
}

bool get_instance(std::FILE* f, exec::InstanceMetrics& m) {
  std::int32_t filter = 0, instance = 0, host = 0;
  if (!get_pod(f, filter) || !get_pod(f, instance) || !get_pod(f, host) ||
      !get_str(f, m.host_class) || !get_pod(f, m.work_ops) ||
      !get_pod(f, m.busy_time) || !get_pod(f, m.stall_time) ||
      !get_pod(f, m.queue_wait_time) || !get_pod(f, m.io_wait_time) ||
      !get_pod(f, m.buffers_in) || !get_pod(f, m.buffers_out) ||
      !get_pod(f, m.bytes_in) || !get_pod(f, m.bytes_out) ||
      !get_pod(f, m.disk_bytes) || !get_pod(f, m.acks_sent)) {
    return false;
  }
  m.filter = filter;
  m.instance = instance;
  m.host = host;
  return true;
}

bool write_result(const std::string& path, const RankResult& r) {
  FileCloser fc{std::fopen(path.c_str(), "wb")};
  std::FILE* f = fc.f;
  if (f == nullptr) return false;
  bool ok = put_pod(f, kResultMagic) && put_pod(f, std::int32_t{r.rank});
  ok = ok && put_pod(f, static_cast<std::uint32_t>(r.uow_status.size()));
  for (std::size_t u = 0; ok && u < r.uow_status.size(); ++u) {
    ok = put_pod(f, std::int32_t{r.uow_status[u]}) &&
         put_pod(f, r.per_uow[u]);
  }
  ok = ok && put_str(f, r.error);
  ok = ok && put_pod(f, static_cast<std::uint32_t>(r.metrics.streams.size()));
  for (const auto& s : r.metrics.streams) {
    ok = ok && put_str(f, s.name) && put_pod(f, s.buffers) &&
         put_pod(f, s.payload_bytes) && put_pod(f, s.message_bytes);
  }
  ok = ok && put_pod(f, r.metrics.acks_total) &&
       put_pod(f, r.metrics.ack_bytes_total) && put_pod(f, r.metrics.makespan);
  ok = ok &&
       put_pod(f, static_cast<std::uint32_t>(r.metrics.instances.size()));
  for (const auto& m : r.metrics.instances) ok = ok && put_instance(f, m);
  ok = ok && put_bytes(f, &r.net, sizeof(r.net));
  ok = ok && put_pod(f, static_cast<std::uint32_t>(r.outcomes.size()));
  for (std::size_t u = 0; ok && u < r.outcomes.size(); ++u) {
    ok = put_outcome(f, r.outcomes[u]);
  }
  ok = ok && put_pod(f, r.faults.hosts_failed) &&
       put_pod(f, r.faults.failovers) && put_pod(f, r.faults.retransmits) &&
       put_pod(f, r.faults.buffers_lost) &&
       put_pod(f, r.faults.buffers_duplicated);
  ok = ok && put_bytes(f, &r.governor, sizeof(r.governor));
  ok = ok && put_pod(f, static_cast<std::uint32_t>(r.digests.size()));
  for (std::uint64_t d : r.digests) ok = ok && put_pod(f, d);
  ok = ok && put_pod(f, static_cast<std::uint32_t>(r.images.size()));
  for (const Image& img : r.images) {
    ok = ok && put_pod(f, std::int32_t{img.width()}) &&
         put_pod(f, std::int32_t{img.height()}) &&
         put_bytes(f, img.pixels().data(),
                   img.pixels().size() * sizeof(std::uint32_t));
  }
  return ok && std::fflush(f) == 0;
}

bool read_result(const std::string& path, RankResult& r) {
  FileCloser fc{std::fopen(path.c_str(), "rb")};
  std::FILE* f = fc.f;
  if (f == nullptr) return false;
  std::uint32_t magic = 0;
  std::int32_t rank = -1;
  if (!get_pod(f, magic) || magic != kResultMagic || !get_pod(f, rank)) {
    return false;
  }
  r.rank = rank;
  std::uint32_t uows = 0;
  if (!get_pod(f, uows) || uows > (1u << 16)) return false;
  r.uow_status.resize(uows);
  r.per_uow.resize(uows);
  for (std::uint32_t u = 0; u < uows; ++u) {
    std::int32_t st = 0;
    if (!get_pod(f, st) || !get_pod(f, r.per_uow[u])) return false;
    r.uow_status[u] = st;
  }
  if (!get_str(f, r.error)) return false;
  std::uint32_t nstreams = 0;
  if (!get_pod(f, nstreams) || nstreams > (1u << 16)) return false;
  r.metrics.streams.resize(nstreams);
  for (auto& s : r.metrics.streams) {
    if (!get_str(f, s.name) || !get_pod(f, s.buffers) ||
        !get_pod(f, s.payload_bytes) || !get_pod(f, s.message_bytes)) {
      return false;
    }
  }
  if (!get_pod(f, r.metrics.acks_total) ||
      !get_pod(f, r.metrics.ack_bytes_total) ||
      !get_pod(f, r.metrics.makespan)) {
    return false;
  }
  std::uint32_t ninst = 0;
  if (!get_pod(f, ninst) || ninst > (1u << 20)) return false;
  r.metrics.instances.resize(ninst);
  for (auto& m : r.metrics.instances) {
    if (!get_instance(f, m)) return false;
  }
  if (!get_bytes(f, &r.net, sizeof(r.net))) return false;
  std::uint32_t nout = 0;
  if (!get_pod(f, nout) || nout > (1u << 16)) return false;
  r.outcomes.resize(nout);
  for (auto& o : r.outcomes) {
    if (!get_outcome(f, o)) return false;
  }
  if (!get_pod(f, r.faults.hosts_failed) || !get_pod(f, r.faults.failovers) ||
      !get_pod(f, r.faults.retransmits) ||
      !get_pod(f, r.faults.buffers_lost) ||
      !get_pod(f, r.faults.buffers_duplicated)) {
    return false;
  }
  if (!get_bytes(f, &r.governor, sizeof(r.governor))) return false;
  std::uint32_t ndig = 0;
  if (!get_pod(f, ndig) || ndig > (1u << 16)) return false;
  r.digests.resize(ndig);
  for (auto& d : r.digests) {
    if (!get_pod(f, d)) return false;
  }
  std::uint32_t nimg = 0;
  if (!get_pod(f, nimg) || nimg > (1u << 16)) return false;
  r.images.clear();
  for (std::uint32_t i = 0; i < nimg; ++i) {
    std::int32_t w = 0, h = 0;
    if (!get_pod(f, w) || !get_pod(f, h) || w <= 0 || h <= 0 ||
        static_cast<std::int64_t>(w) * h > (1 << 26)) {
      return false;
    }
    Image img(w, h);
    std::vector<std::uint32_t> px(static_cast<std::size_t>(w) *
                                  static_cast<std::size_t>(h));
    if (!get_bytes(f, px.data(), px.size() * sizeof(std::uint32_t))) {
      return false;
    }
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        img.set(x, y, px[static_cast<std::size_t>(y) *
                             static_cast<std::size_t>(w) +
                         static_cast<std::size_t>(x)]);
      }
    }
    r.images.push_back(std::move(img));
  }
  return true;
}

std::string rank_file(const std::string& dir, int rank) {
  return dir + "/rank" + std::to_string(rank) + ".bin";
}

/// What one rank process does: mesh up, run every UOW in lockstep, report.
int rank_main(net::RankEnv& env, const IsoAppSpec& spec,
              const core::RuntimeConfig& cfg, int uows,
              const DistributedRunOptions& opts, const std::string& dir) {
  std::vector<net::Socket> peers;
  if (env.num_ranks > 1) {
    peers = net::connect_mesh(env, opts.mesh_timeout_s);
  }
  env.listener.close();

  // Every rank builds the identical graph + placement (deterministic from
  // the spec); the engine instantiates only this rank's copies.
  IsoApp app = opts.builder ? opts.builder(spec) : build_iso_app(spec);
  exec::DistributedOptions dopts;
  dopts.barrier_timeout_s = opts.barrier_timeout_s;

  RankResult result;
  result.rank = env.rank;
  {
    exec::Engine eng(app.graph, app.placement, cfg, env.rank, env.num_ranks,
                     std::move(peers), dopts);
    obs::TraceSession trace;
    if (!opts.trace_dir.empty()) eng.set_obs(&trace);

    for (int u = 0; u < uows; ++u) {
      const exec::UowResult r = eng.run_uow_outcome();
      result.uow_status.push_back(static_cast<int>(r.status));
      result.per_uow.push_back(r.makespan);
      result.outcomes.push_back(r.outcome);
      if (!r.ok()) {
        if (result.error.empty()) result.error = r.error;
        // Only a transport failure poisons the engine; an app-level abort
        // ends one UOW in lockstep and the next runs normally.
        if (r.status == exec::RunStatus::kTransportError) break;
      }
    }
    // Shut the links down BEFORE snapshotting: stop() flushes each outbox
    // and joins the pump threads, so the sent-side counters are final.
    // (Received-side counters can still miss a peer's trailing CREDIT/ACK
    // frames — those are not ordered by the completion barrier.)
    eng.shutdown();
    result.metrics = eng.metrics();
    result.net = net::snapshot(eng.net_metrics());
    result.faults = eng.fault_metrics();
    result.governor = eng.governor_stats();
    if (!opts.trace_dir.empty()) {
      obs::write_chrome_trace(trace, opts.trace_dir + "/rank" +
                                         std::to_string(env.rank) +
                                         ".trace.json");
    }
  }
  result.digests = app.sink->digests;
  if (spec.keep_images) result.images = app.sink->images;

  if (!write_result(rank_file(dir, env.rank), result)) return 5;
  int rc = 0;
  for (int st : result.uow_status) {
    if (st == static_cast<int>(exec::RunStatus::kAborted)) rc = std::max(rc, 2);
    if (st == static_cast<int>(exec::RunStatus::kTransportError)) {
      rc = std::max(rc, 3);
    }
  }
  // Zero-copy enforcement: no DATA payload may have been materialized
  // between production and the socket write. Every differential run doubles
  // as the copy-counter regression test.
  if (core::BufferArena::global().stats().payload_copies > 0) {
    rc = std::max(rc, 6);
  }
  return rc;
}

}  // namespace

DistributedRenderRun run_iso_app_distributed(const IsoAppSpec& spec,
                                             const core::RuntimeConfig& cfg,
                                             int uows, int num_ranks,
                                             DistributedRunOptions opts) {
  if (num_ranks <= 0) {
    throw std::invalid_argument("run_iso_app_distributed: num_ranks <= 0");
  }
  std::string dir = opts.result_dir;
  bool temp_dir = false;
  if (dir.empty()) {
    // Scratch space honors $TMPDIR (io::temp_root — the same resolution the
    // engines use for spill files), falling back to /tmp.
    std::string tmpl = (io::temp_root() / "dc_dist_XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("run_iso_app_distributed: mkdtemp failed");
    }
    dir = tmpl;
    temp_dir = true;
  }

  net::LaunchOptions lopts;
  lopts.timeout_s = opts.timeout_s;
  DistributedRenderRun run;
  run.ranks = net::run_local_ranks(
      num_ranks,
      [&](net::RankEnv& env) {
        return rank_main(env, spec, cfg, uows, opts, dir);
      },
      lopts);

  // Aggregate the rank reports.
  run.uow_status.assign(static_cast<std::size_t>(uows), 0);
  bool all_reported = true;
  for (int r = 0; r < num_ranks; ++r) {
    RankResult rr;
    const std::string path = rank_file(dir, r);
    if (!read_result(path, rr)) {
      all_reported = false;
      if (run.error.empty()) {
        run.error = "rank " + std::to_string(r) + " left no result (" +
                    (run.ranks[static_cast<std::size_t>(r)].timed_out
                         ? "timed out"
                         : "crashed or failed early") +
                    ")";
      }
      continue;
    }
    for (std::size_t u = 0; u < rr.uow_status.size() &&
                            u < run.uow_status.size();
         ++u) {
      run.uow_status[u] = std::max(run.uow_status[u], rr.uow_status[u]);
    }
    if (rr.uow_status.size() < static_cast<std::size_t>(uows) &&
        run.error.empty()) {
      run.error = "rank " + std::to_string(r) + ": " +
                  (rr.error.empty() ? "stopped early" : rr.error);
    }
    if (!rr.error.empty() && run.error.empty()) {
      run.error = "rank " + std::to_string(r) + ": " + rr.error;
    }
    // Ledger: sum across ranks (each instance lives on exactly one rank).
    if (run.metrics.streams.empty()) {
      run.metrics.streams = rr.metrics.streams;
    } else {
      for (std::size_t s = 0;
           s < run.metrics.streams.size() && s < rr.metrics.streams.size();
           ++s) {
        run.metrics.streams[s].buffers += rr.metrics.streams[s].buffers;
        run.metrics.streams[s].payload_bytes +=
            rr.metrics.streams[s].payload_bytes;
        run.metrics.streams[s].message_bytes +=
            rr.metrics.streams[s].message_bytes;
      }
    }
    run.metrics.instances.insert(run.metrics.instances.end(),
                                 rr.metrics.instances.begin(),
                                 rr.metrics.instances.end());
    run.metrics.acks_total += rr.metrics.acks_total;
    run.metrics.ack_bytes_total += rr.metrics.ack_bytes_total;
    run.metrics.makespan = std::max(run.metrics.makespan, rr.metrics.makespan);
    run.net += rr.net;
    // Fault aggregation: failovers / hosts_failed are observed once per
    // rank and already global (max); retransmit / loss / duplicate counts
    // are per-rank partial (sum); dead filters are unioned.
    if (run.outcomes.size() < rr.outcomes.size()) {
      run.outcomes.resize(rr.outcomes.size());
    }
    for (std::size_t u = 0; u < rr.outcomes.size(); ++u) {
      core::UowOutcome& agg = run.outcomes[u];
      const core::UowOutcome& o = rr.outcomes[u];
      agg.status = std::max(agg.status, o.status);
      agg.makespan = std::max(agg.makespan, o.makespan);
      agg.failovers = std::max(agg.failovers, o.failovers);
      agg.retransmits += o.retransmits;
      agg.buffers_lost += o.buffers_lost;
      agg.buffers_duplicated += o.buffers_duplicated;
      for (int d : o.dead_filters) {
        if (std::find(agg.dead_filters.begin(), agg.dead_filters.end(), d) ==
            agg.dead_filters.end()) {
          agg.dead_filters.push_back(d);
        }
      }
      std::sort(agg.dead_filters.begin(), agg.dead_filters.end());
    }
    run.faults.hosts_failed =
        std::max(run.faults.hosts_failed, rr.faults.hosts_failed);
    run.faults.failovers = std::max(run.faults.failovers, rr.faults.failovers);
    run.faults.retransmits += rr.faults.retransmits;
    run.faults.buffers_lost += rr.faults.buffers_lost;
    run.faults.buffers_duplicated += rr.faults.buffers_duplicated;
    // Governor counters sum across ranks; high-water / budget max (+= does
    // exactly that — budgets are per host).
    run.governor += rr.governor;
    if (!rr.digests.empty()) {
      run.digests = std::move(rr.digests);
      run.images = std::move(rr.images);
      run.per_uow = std::move(rr.per_uow);
    }
  }

  if (temp_dir) {
    for (int r = 0; r < num_ranks; ++r) ::unlink(rank_file(dir, r).c_str());
    ::rmdir(dir.c_str());
  }

  bool procs_ok = true;
  for (const auto& st : run.ranks) procs_ok = procs_ok && st.ok();
  bool uows_ok = true;
  for (int st : run.uow_status) uows_ok = uows_ok && st == 0;
  run.ok = procs_ok && uows_ok && all_reported &&
           run.digests.size() == static_cast<std::size_t>(uows);
  if (!run.ok && run.error.empty()) {
    run.error = "distributed run failed (process statuses)";
  }
  return run;
}

}  // namespace dc::viz
