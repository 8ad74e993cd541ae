#include "viz/distributed.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>
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
// Each record lists its fields once, in a `fields(io, record)` template that
// Put drives to write the file and Get drives to read it back; Get rejects
// any length beyond its bound.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kResultMagic = 0x35524346;  // "FCR5"
constexpr std::uint32_t kMaxCount = 1u << 16;  ///< UOWs, streams, digests, images
constexpr std::uint32_t kMaxInstances = 1u << 20;
constexpr std::uint32_t kMaxString = 1u << 20;
constexpr std::int64_t kMaxPixels = std::int64_t{1} << 26;

/// Mesh-handshake timeout inside each rank.
constexpr double kMeshTimeoutS = 30.0;
/// Per-UOW completion-barrier deadline inside each rank's engine.
constexpr double kBarrierTimeoutS = 60.0;

struct FileCloser {
  std::FILE* f = nullptr;
  ~FileCloser() {
    if (f != nullptr) std::fclose(f);
  }
};

struct Put {
  static constexpr bool kReads = false;
  std::FILE* f;
  bool bytes(const void* p, std::size_t n) {
    return std::fwrite(p, 1, n, f) == n;
  }
};

struct Get {
  static constexpr bool kReads = true;
  std::FILE* f;
  bool bytes(void* p, std::size_t n) { return std::fread(p, 1, n, f) == n; }
};

template <class Io, class T>
bool pod(Io& io, T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return io.bytes(&v, sizeof(v));
}

template <class Io>
bool str(Io& io, std::string& s) {
  auto n = static_cast<std::uint32_t>(s.size());
  if (!pod(io, n) || n > kMaxString) return false;
  s.resize(n);
  return n == 0 || io.bytes(s.data(), n);
}

/// Everything one rank reports back to the parent.
struct RankResult {
  int rank = -1;
  std::vector<int> uow_status;       ///< exec::RunStatus per completed call
  std::vector<double> per_uow;       ///< makespans
  std::string error;                 ///< first failure
  core::Metrics metrics;             ///< this rank's local ledger
  net::NetMetricsSnapshot net;
  core::GovernorStats governor;      ///< this rank's governor counters
  std::vector<std::uint64_t> digests;  ///< local sink (merge rank only)
  std::vector<Image> images;
};

template <class Io>
bool fields(Io& io, core::InstanceMetrics& m) {
  return pod(io, m.filter) && pod(io, m.instance) && pod(io, m.host) &&
         str(io, m.host_class) && pod(io, m.work_ops) &&
         pod(io, m.busy_time) && pod(io, m.stall_time) &&
         pod(io, m.queue_wait_time) && pod(io, m.io_wait_time) &&
         pod(io, m.buffers_in) && pod(io, m.buffers_out) &&
         pod(io, m.bytes_in) && pod(io, m.bytes_out) &&
         pod(io, m.disk_bytes) && pod(io, m.acks_sent);
}

template <class Io>
bool fields(Io& io, core::StreamMetrics& s) {
  return str(io, s.name) && pod(io, s.buffers) && pod(io, s.payload_bytes) &&
         pod(io, s.message_bytes);
}

template <class Io>
bool fields(Io& io, Image& img) {
  std::int32_t w = img.width(), h = img.height();
  if (!pod(io, w) || !pod(io, h) || w <= 0 || h <= 0 ||
      static_cast<std::int64_t>(w) * h > kMaxPixels) {
    return false;
  }
  const std::size_t n = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  if constexpr (Io::kReads) {
    std::vector<std::uint32_t> px(n);
    if (!io.bytes(px.data(), n * sizeof(std::uint32_t))) return false;
    img = Image(w, h);
    img.blit(0, 0, w, h, px);
    return true;
  } else {
    return io.bytes(img.pixels().data(), n * sizeof(std::uint32_t));
  }
}

/// A length-prefixed list of pods or of records with fields().
template <class Io, class T>
bool list(Io& io, std::vector<T>& v, std::uint32_t max) {
  auto n = static_cast<std::uint32_t>(v.size());
  if (!pod(io, n) || n > max) return false;
  v.resize(n);
  for (T& e : v) {
    if constexpr (std::is_arithmetic_v<T>) {
      if (!pod(io, e)) return false;
    } else if (!fields(io, e)) {
      return false;
    }
  }
  return true;
}

template <class Io>
bool fields(Io& io, core::Metrics& m) {
  return list(io, m.instances, kMaxInstances) &&
         list(io, m.streams, kMaxCount) && pod(io, m.makespan) &&
         pod(io, m.acks_total) && pod(io, m.ack_bytes_total) &&
         pod(io, m.faults);
}

template <class Io>
bool fields(Io& io, RankResult& r) {
  std::uint32_t magic = kResultMagic;
  return pod(io, magic) && magic == kResultMagic && pod(io, r.rank) &&
         list(io, r.uow_status, kMaxCount) && list(io, r.per_uow, kMaxCount) &&
         str(io, r.error) && fields(io, r.metrics) && pod(io, r.net) &&
         pod(io, r.governor) && list(io, r.digests, kMaxCount) &&
         list(io, r.images, kMaxCount);
}

bool write_result(const std::string& path, RankResult& r) {
  FileCloser fc{std::fopen(path.c_str(), "wb")};
  if (fc.f == nullptr) return false;
  Put put{fc.f};
  return fields(put, r) && std::fflush(fc.f) == 0;
}

bool read_result(const std::string& path, RankResult& r) {
  FileCloser fc{std::fopen(path.c_str(), "rb")};
  if (fc.f == nullptr) return false;
  Get get{fc.f};
  return fields(get, r);
}

std::string rank_file(const std::string& dir, int rank) {
  return dir + "/rank" + std::to_string(rank) + ".bin";
}

/// A fresh directory for the rank files under io::temp_root() ($TMPDIR, the
/// same resolution the engines use for spill files, else /tmp). The
/// destructor removes it and every rank file on any exit path, a launch
/// that throws included.
struct ResultDir {
  std::string path;
  int ranks;

  explicit ResultDir(int num_ranks)
      : path((io::temp_root() / "dc_dist_XXXXXX").string()), ranks(num_ranks) {
    if (::mkdtemp(path.data()) == nullptr) {
      throw std::runtime_error("run_iso_app_distributed: mkdtemp failed");
    }
  }
  ResultDir(const ResultDir&) = delete;
  ResultDir& operator=(const ResultDir&) = delete;
  ~ResultDir() {
    for (int r = 0; r < ranks; ++r) ::unlink(rank_file(path, r).c_str());
    ::rmdir(path.c_str());
  }
};

/// What one rank process does: mesh up, run every UOW in lockstep, report.
int rank_main(net::RankEnv& env, const IsoAppSpec& spec,
              const core::RuntimeConfig& cfg, int uows,
              const DistributedRunOptions& opts, const std::string& dir) {
  std::vector<net::Socket> peers;
  if (env.num_ranks > 1) {
    peers = net::connect_mesh(env, kMeshTimeoutS);
  }
  env.listener.close();

  // Every rank builds the identical graph + placement (deterministic from
  // the spec); the engine instantiates only this rank's copies.
  IsoApp app = opts.builder ? opts.builder(spec) : build_iso_app(spec);
  exec::DistributedOptions dopts;
  dopts.barrier_timeout_s = kBarrierTimeoutS;

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
  const ResultDir dir(num_ranks);

  net::LaunchOptions lopts;
  lopts.timeout_s = opts.timeout_s;
  DistributedRenderRun run;
  run.ranks = net::run_local_ranks(
      num_ranks,
      [&](net::RankEnv& env) {
        return rank_main(env, spec, cfg, uows, opts, dir.path);
      },
      lopts);

  // Aggregate the rank reports.
  run.uow_status.assign(static_cast<std::size_t>(uows), 0);
  bool all_reported = true;
  for (int r = 0; r < num_ranks; ++r) {
    RankResult rr;
    const std::string path = rank_file(dir.path, r);
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
    // Faults: hosts_failed / failovers are observed once per rank and
    // already global (max), as is a maximum; the rest are per-rank partial
    // (sum).
    core::FaultMetrics& f = run.metrics.faults;
    const core::FaultMetrics& rf = rr.metrics.faults;
    f.hosts_failed = std::max(f.hosts_failed, rf.hosts_failed);
    f.failovers = std::max(f.failovers, rf.failovers);
    f.retransmits += rf.retransmits;
    f.buffers_lost += rf.buffers_lost;
    f.buffers_duplicated += rf.buffers_duplicated;
    f.recovery_latency_total += rf.recovery_latency_total;
    f.recovery_latency_max =
        std::max(f.recovery_latency_max, rf.recovery_latency_max);
    // Governor counters sum across ranks; high-water / budget max (+= does
    // exactly that — budgets are per host).
    run.governor += rr.governor;
    if (!rr.digests.empty()) {
      run.digests = std::move(rr.digests);
      run.images = std::move(rr.images);
      run.per_uow = std::move(rr.per_uow);
    }
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
