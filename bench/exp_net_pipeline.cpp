// Distributed TCP pipeline experiment: the RE-Ra-M isosurface render spread
// over 1 / 2 / 4 cooperating OS processes on this machine, connected by the
// dc::net transport (one exec::Engine rank per process), under each writer
// policy.
//
// This is the wall-clock, multi-process counterpart of exp_native_pipeline:
// the same graph and placement run as one process per simulated host, the
// filter streams cross real TCP sockets with credit-based flow control, and
// the merged image of every configuration must be bit-identical to the
// single-process native engine's render (which is itself checked against the
// non-distributed reference). The table also reports what the transport did:
// frames/s and bytes/s moved and the p99 credit-stall latency. A final
// link-saturation phase streams large DATA frames through one PeerLink, on
// the zero-copy data plane and on an emulation of the legacy copying plane,
// to isolate the data plane's copy cost from the sweep's compute-bound wall
// clock.
//
// The paper ran its filter services across a heterogeneous cluster; here the
// "hosts" are processes on one machine, which exercises every protocol path
// (framing, credits, demand acks, end-of-work, completion barrier) with
// loopback latencies standing in for the LAN.
//
//   build/bench/exp_net_pipeline [--quick]
//
// NOTE: the sweep forks rank processes, so the parent must stay
// single-threaded; every engine run joins its threads before returning, and
// the rank children never write to stdout (the last line stays JSON).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "core/policy.hpp"
#include "exp_common.hpp"
#include "net/metrics.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "viz/app.hpp"
#include "viz/distributed.hpp"

using namespace dc;

namespace {

struct Point {
  int ranks = 0;
  std::string policy;
  double wall_s = 0.0;
  bool image_ok = false;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t p99_stall_us = 0;
  double frames_per_s = 0.0;
  double bytes_per_s = 0.0;
};

/// Streams `nframes` DATA frames of `payload_bytes` each through one real
/// loopback connection into a receiving PeerLink and returns the seconds
/// from first send to last receipt.
///
/// `zero_copy` true is this PR's data plane: every frame shares the single
/// producer slot (refcount bump), a sending PeerLink hands batches to the
/// kernel in one scatter-gather sendmsg, and the receiver adopts the
/// frame's storage. false reproduces the seed's data plane it replaced:
/// the payload is materialized into a fresh slot before the send
/// (Buffer -> frame payload), sealed with a software FNV-1a payload digest,
/// written as two separate socket writes with no cross-frame coalescing,
/// and the receiver re-hashes the payload and rebuilds a Buffer from the
/// frame's storage — the copies the engine's DATA path made before it went
/// zero-copy, plus the seed's checksum and syscall pattern.
double saturate_link(bool zero_copy, int nframes, std::size_t payload_bytes) {
  auto& arena = core::BufferArena::global();
  net::Socket listener = net::listen_loopback(0, 4);
  net::Socket sa = net::connect_loopback(net::local_port(listener), 10.0);
  net::Socket sb = net::accept_one(listener, 10.0);

  net::NetMetrics metrics;
  std::atomic<int> got{0};
  std::mutex mu;
  std::condition_variable cv;
  net::PeerLink rx(1, 0, std::move(sb), &metrics, nullptr);
  std::atomic<std::uint64_t> fnv_sink{0};  ///< keeps the hashes observable
  rx.start(
      [&](int, const net::Frame& f) {
        if (!zero_copy) {
          // The seed verified a software FNV-1a digest of every payload,
          // then rebuilt a Buffer from the frame's storage.
          fnv_sink.fetch_add(net::fnv1a(f.payload.bytes()),
                             std::memory_order_relaxed);
          core::Buffer delivered = arena.make(f.payload.size());
          delivered.append(f.payload.bytes());
          arena.note_payload_copy(f.payload.size());
        }
        if (got.fetch_add(1) + 1 == nframes) {
          std::lock_guard<std::mutex> lk(mu);
          cv.notify_all();
        }
      },
      [](int, net::WireError, const std::string&) {});

  core::Buffer src = arena.make(payload_bytes);
  src.append(std::vector<std::byte>(payload_bytes, std::byte{0x5A}));

  const auto t0 = std::chrono::steady_clock::now();
  if (zero_copy) {
    net::PeerLink tx(0, 1, std::move(sa), &metrics, nullptr);
    tx.set_outbox_capacity(64);  // bounded, like the engine configures it
    tx.start([](int, const net::Frame&) {},
             [](int, net::WireError, const std::string&) {});
    for (int i = 0; i < nframes; ++i) {
      core::BufferRoute route;
      route.uow = static_cast<std::uint32_t>(i);
      tx.send(net::make_frame(net::FrameType::kData, route, src));
    }
    tx.stop(/*flush=*/true);
  } else {
    // The seed's pump, in miniature: a bounded outbox drained by a
    // dedicated writer thread that seals and writes ONE frame at a time,
    // header and payload as two separate socket writes.
    std::deque<net::Frame> q;
    bool done = false;
    std::mutex qmu;
    std::condition_variable qcv;
    std::thread writer([&] {
      std::uint64_t seq = 1;  // a PeerLink peer expects seq 0 = mesh HELLO
      for (;;) {
        net::Frame f;
        {
          std::unique_lock<std::mutex> lk(qmu);
          qcv.wait(lk, [&] { return !q.empty() || done; });
          if (q.empty()) break;
          f = std::move(q.front());
          q.pop_front();
          qcv.notify_all();
        }
        // The seed's seal computed a software FNV-1a digest of the payload;
        // pay that cost (the shared transport's hardware CRC32C inside
        // seal_frame is the cheap replacement this PR introduced).
        fnv_sink.fetch_add(net::fnv1a(f.payload.bytes()),
                           std::memory_order_relaxed);
        net::seal_frame(f, seq++);
        const auto body = f.payload.bytes();
        if (!sa.send_all({reinterpret_cast<const std::byte*>(&f.header),
                          sizeof(net::FrameHeader)}) ||
            !sa.send_all(body)) {
          break;
        }
      }
    });
    for (int i = 0; i < nframes; ++i) {
      core::Buffer payload = arena.make(payload_bytes);
      payload.append(src.bytes());
      arena.note_payload_copy(payload_bytes);
      core::BufferRoute route;
      route.uow = static_cast<std::uint32_t>(i);
      std::unique_lock<std::mutex> lk(qmu);
      qcv.wait(lk, [&] { return q.size() < 64; });
      q.push_back(
          net::make_frame(net::FrameType::kData, route, std::move(payload)));
      qcv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lk(qmu);
      done = true;
      qcv.notify_all();
    }
    writer.join();
  }
  double wall_s = 0.0;
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait_for(lk, std::chrono::seconds(120),
                [&] { return got.load() == nframes; });
    wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  }
  rx.stop(/*flush=*/false);
  return got.load() == nframes ? wall_s : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::Args args = exp::Args::parse(argc, argv);

  const data::ChunkLayout layout(
      data::GridDims{args.grid, args.grid, args.grid}, args.chunks,
      args.chunks, args.chunks);
  data::DatasetStore store(layout, data::hilbert_decluster(layout, args.files),
                           args.files);
  const data::PlumeField field(args.seed);

  viz::VizWorkload w;
  w.store = &store;
  w.field = &field;
  w.iso_value = args.iso;
  w.width = args.small_image;
  w.height = args.small_image;

  // Placement per process count: data-reading RE copies stay where the
  // chunks are, Ra replicas and the single M copy take the other ranks.
  auto make_spec = [&](int ranks) {
    viz::IsoAppSpec spec;
    spec.workload = w;
    spec.config = viz::PipelineConfig::kRE_Ra_M;
    spec.hsr = viz::HsrAlgorithm::kActivePixel;
    spec.keep_images = false;
    switch (ranks) {
      case 1:
        spec.data_hosts = {{0, 1}};
        spec.raster_hosts = {{0, 2}};
        spec.merge_host = 0;
        store.place_uniform({data::FileLocation{0, 0}});
        break;
      case 2:
        spec.data_hosts = {{0, 1}};
        spec.raster_hosts = {{1, 2}};
        spec.merge_host = 1;
        store.place_uniform({data::FileLocation{0, 0}});
        break;
      default:  // 4
        spec.data_hosts = viz::one_each({0, 1});
        spec.raster_hosts = {{2, 2}, {3, 1}};
        spec.merge_host = 3;
        store.place_uniform(
            {data::FileLocation{0, 0}, data::FileLocation{1, 0}});
        break;
    }
    return spec;
  };

  exp::print_title(
      "Distributed RE-Ra-M pipeline over TCP (exec::Engine ranks)",
      "one process per host, loopback transport, " +
          std::to_string(args.uows) + " timestep(s), image " +
          std::to_string(args.small_image) + "^2");

  const struct {
    core::Policy policy;
    const char* name;
  } kPolicies[] = {{core::Policy::kRoundRobin, "rr"},
                   {core::Policy::kWeightedRoundRobin, "wrr"},
                   {core::Policy::kDemandDriven, "dd"}};

  std::vector<Point> points;
  viz::DistributedRenderRun last;
  exp::Table table({"procs", "policy", "wall s/uow", "frames/s", "MB/s",
                    "p99 stall us", "image"});
  for (int ranks : {1, 2, 4}) {
    const viz::IsoAppSpec spec = make_spec(ranks);
    for (const auto& pol : kPolicies) {
      core::RuntimeConfig cfg;
      cfg.policy = pol.policy;
      cfg.rng_seed = args.seed;

      // The single-process native render of the identical spec is the
      // bit-parity reference for this configuration.
      const viz::NativeRenderRun ref = viz::run_iso_app_native(spec, cfg, 1);

      viz::DistributedRunOptions opts;
      opts.timeout_s = 300.0;
      const viz::DistributedRenderRun run =
          viz::run_iso_app_distributed(spec, cfg, args.uows, ranks, opts);
      if (!run.ok) {
        std::fprintf(stderr, "run failed (%d ranks, %s): %s\n", ranks,
                     pol.name, run.error.c_str());
        return 1;
      }
      last = run;

      Point pt;
      pt.ranks = ranks;
      pt.policy = pol.name;
      double total_s = 0.0;
      for (double s : run.per_uow) total_s += s;
      pt.wall_s = total_s /
                  static_cast<double>(run.per_uow.empty() ? 1
                                                          : run.per_uow.size());
      pt.image_ok = !run.digests.empty() && !ref.sink->digests.empty() &&
                    run.digests[0] == ref.sink->digests[0];
      pt.frames = run.net.frames_sent;
      pt.bytes = run.net.bytes_sent;
      pt.credit_stalls = run.net.credit_stalls;
      pt.p99_stall_us = run.net.stall_percentile_us(0.99);
      if (total_s > 0.0) {
        pt.frames_per_s = static_cast<double>(pt.frames) / total_s;
        pt.bytes_per_s = static_cast<double>(pt.bytes) / total_s;
      }
      points.push_back(pt);

      table.row({std::to_string(pt.ranks), pt.policy,
                 exp::Table::num(pt.wall_s, 4),
                 exp::Table::num(pt.frames_per_s, 1),
                 exp::Table::num(pt.bytes_per_s / 1e6, 2),
                 std::to_string(pt.p99_stall_us),
                 pt.image_ok ? "ok" : "MISMATCH"});
    }
  }
  exp::print_rule();
  std::printf(
      "Every row's merged image is checked bit-for-bit against the\n"
      "single-process native engine render of the same spec and seed.\n");
  exp::print_rule();

  // Phase 2 — transport saturation. The engine sweep above is compute-bound
  // (rasterization dominates its wall clock); this phase isolates the data
  // plane itself. Best of three reps per mode to shave scheduler noise
  // (--quick: one rep).
  const int sat_frames = args.quick ? 96 : 768;
  // Frame payloads exactly fill one arena size class (the slot capacity a
  // lease of the nominal size gets) so MB/s measures full-slot transfers
  // and follows any retuning of the arena's class rounding.
  const std::size_t sat_bytes = core::BufferArena::slot_capacity(
      args.quick ? (200u << 10) : (1000u << 10));
  const int sat_reps = args.quick ? 1 : 3;
  double sat_zc_s = -1.0, sat_cp_s = -1.0;
  for (int rep = 0; rep < sat_reps; ++rep) {
    const double zc = saturate_link(true, sat_frames, sat_bytes);
    const double cp = saturate_link(false, sat_frames, sat_bytes);
    if (zc > 0.0 && (sat_zc_s < 0.0 || zc < sat_zc_s)) sat_zc_s = zc;
    if (cp > 0.0 && (sat_cp_s < 0.0 || cp < sat_cp_s)) sat_cp_s = cp;
  }
  if (sat_zc_s <= 0.0 || sat_cp_s <= 0.0) {
    std::fprintf(stderr, "saturation phase stalled\n");
    return 1;
  }
  const double sat_total = static_cast<double>(sat_frames) *
                           static_cast<double>(sat_bytes);
  const double sat_zc_bps = sat_total / sat_zc_s;
  const double sat_cp_bps = sat_total / sat_cp_s;
  const double sat_speedup = sat_cp_s / sat_zc_s;
  std::printf(
      "Link saturation (%d x %zu KiB DATA frames over one loopback link):\n"
      "  zero-copy    %8.1f MB/s  (%.1f frames/s)  pooled slots, hw CRC32C, "
      "sendmsg\n"
      "  seed legacy  %8.1f MB/s  (%.1f frames/s)  2 copies, sw FNV-1a x2, "
      "2 writes/frame\n"
      "  zero-copy speedup x%.2f\n",
      sat_frames, sat_bytes >> 10, sat_zc_bps / 1e6,
      static_cast<double>(sat_frames) / sat_zc_s, sat_cp_bps / 1e6,
      static_cast<double>(sat_frames) / sat_cp_s, sat_speedup);

  obs::MetricsRegistry reg;
  for (const Point& pt : points) {
    const std::string k =
        "sweep.p" + std::to_string(pt.ranks) + "." + pt.policy;
    reg.set(k + ".wall_s", pt.wall_s);
    reg.set(k + ".frames", static_cast<std::int64_t>(pt.frames));
    reg.set(k + ".bytes", static_cast<std::int64_t>(pt.bytes));
    reg.set(k + ".frames_per_s", pt.frames_per_s);
    reg.set(k + ".bytes_per_s", pt.bytes_per_s);
    reg.set(k + ".credit_stalls", static_cast<std::int64_t>(pt.credit_stalls));
    reg.set(k + ".p99_stall_us", static_cast<std::int64_t>(pt.p99_stall_us));
    reg.set(k + ".image_ok", static_cast<std::int64_t>(pt.image_ok ? 1 : 0));
  }
  reg.set("saturate.frame_bytes", static_cast<std::int64_t>(sat_bytes));
  reg.set("saturate.frames", static_cast<std::int64_t>(sat_frames));
  reg.set("saturate.zero_copy.bytes_per_s", sat_zc_bps);
  reg.set("saturate.copy.bytes_per_s", sat_cp_bps);
  reg.set("saturate.speedup", sat_speedup);
  core::publish(last.metrics, reg, "exec");  // ledgers of the final 4-process DD run
  net::publish(last.net, reg);      // its transport counters

  std::string extra = "\"sweep\":[";
  char buf[256];
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"procs\":%d,\"policy\":\"%s\","
                  "\"wall_s\":%.6f,\"frames\":%llu,\"bytes\":%llu,"
                  "\"frames_per_s\":%.1f,\"credit_stalls\":%llu,"
                  "\"p99_stall_us\":%llu,\"image_ok\":%s}",
                  i ? "," : "", pt.ranks, pt.policy.c_str(), pt.wall_s,
                  static_cast<unsigned long long>(pt.frames),
                  static_cast<unsigned long long>(pt.bytes), pt.frames_per_s,
                  static_cast<unsigned long long>(pt.credit_stalls),
                  static_cast<unsigned long long>(pt.p99_stall_us),
                  pt.image_ok ? "true" : "false");
    extra += buf;
  }
  extra += "]";
  std::snprintf(buf, sizeof(buf),
                ",\"saturate\":{\"frames\":%d,\"frame_bytes\":%zu,"
                "\"zero_copy_mb_per_s\":%.1f,\"copy_mb_per_s\":%.1f,"
                "\"speedup\":%.3f}",
                sat_frames, sat_bytes, sat_zc_bps / 1e6, sat_cp_bps / 1e6,
                sat_speedup);
  extra += buf;
  exp::print_json("net_pipeline", reg, extra);
  return 0;
}
