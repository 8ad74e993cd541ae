// Out-of-core storage experiment: what the per-disk I/O scheduler threads,
// per-disk readahead, and the block cache buy on a sequential chunk scan —
// the access pattern of the Read filters.
//
// The dataset is materialized into an on-disk chunk store spread over
// 2 hosts x 2 disk directories (4 scheduler threads), then scanned in chunk
// order exactly the way viz::ReadFilter consumes it: through an
// io::ReadStream that keeps `depth` requests queued on every disk. Each
// scheduler sleeps `--latency-us` per request to emulate device latency
// (files this small sit in the page cache, where every pread returns in
// microseconds and readahead would have nothing to hide). Every (depth,
// phase) point reports wall-clock, cache hit rate, readahead hits, and
// per-disk queue wait. Machine-readable results are emitted as one JSON
// object on the last line.
//
//   build/bench/exp_io_storage [--quick] [--latency-us N]

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "exp_common.hpp"
#include "io/chunk_store.hpp"
#include "io/format.hpp"
#include "io/reader.hpp"

using namespace dc;

namespace {

namespace fs = std::filesystem;

struct SweepPoint {
  int depth = 0;
  const char* phase = "cold";
  double wall_s = 0.0;
  double hit_rate = 0.0;
  std::uint64_t readahead_hits = 0;
  std::uint64_t disk_bytes = 0;
  double queue_wait_s = 0.0;  ///< summed over disks
  io::IoMetrics metrics;      ///< cumulative snapshot at end of phase
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One sequential scan through an io::ReadStream with per-disk readahead
/// `depth`.
double scan(io::ChunkReader& reader, int num_chunks, int depth) {
  std::vector<int> plan(static_cast<std::size_t>(num_chunks));
  std::iota(plan.begin(), plan.end(), 0);
  io::ReadStream stream(reader, std::move(plan), /*timestep=*/0, depth);
  const double t0 = now_s();
  std::uint64_t consumed = 0;
  while (!stream.done()) {
    consumed ^= io::fnv1a(*stream.next());  // stand-in for the consumer's compute
  }
  const double wall = now_s() - t0;
  if (consumed == 0x5eed) std::printf("(unlikely)\n");  // keep `consumed` live
  return wall;
}

SweepPoint measure(io::ChunkReader& reader, int num_chunks, int depth,
                   const char* phase, const io::IoMetrics& before) {
  SweepPoint pt;
  pt.depth = depth;
  pt.phase = phase;
  pt.wall_s = scan(reader, num_chunks, depth);
  pt.metrics = reader.metrics();
  const io::CacheMetrics& c0 = before.cache;
  const io::CacheMetrics& c1 = pt.metrics.cache;
  const std::uint64_t hits = c1.hits - c0.hits;
  const std::uint64_t misses = c1.misses - c0.misses;
  pt.hit_rate = (hits + misses) > 0
                    ? static_cast<double>(hits) /
                          static_cast<double>(hits + misses)
                    : 0.0;
  pt.readahead_hits = c1.readahead_hits - c0.readahead_hits;
  pt.disk_bytes = pt.metrics.total_disk_bytes() - before.total_disk_bytes();
  pt.queue_wait_s =
      pt.metrics.total_queue_wait_s() - before.total_queue_wait_s();
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off the one flag exp::Args doesn't know before parsing the rest.
  long latency_us = 1000;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--latency-us" && i + 1 < argc) {
      latency_us = std::stol(argv[++i]);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const exp::Args args =
      exp::Args::parse(static_cast<int>(passthrough.size()), passthrough.data());

  const data::ChunkLayout layout(data::GridDims{args.grid, args.grid, args.grid},
                                 args.chunks, args.chunks, args.chunks);
  data::DatasetStore store(layout, data::hilbert_decluster(layout, args.files),
                           args.files);
  const data::PlumeField field(args.seed);
  store.place_uniform({data::FileLocation{0, 0}, data::FileLocation{0, 1},
                       data::FileLocation{1, 0}, data::FileLocation{1, 1}});

  const fs::path root = fs::temp_directory_path() / "dc_exp_io_storage";
  fs::remove_all(root);
  io::materialize_plume_dataset(root, store, field, /*base_timestep=*/0,
                                /*num_timesteps=*/1);
  io::ChunkStore disk_store(root);
  const int num_chunks = layout.num_chunks();

  exp::print_title(
      "Out-of-core chunk store (src/io/): readahead and block cache",
      "sequential scan of " + std::to_string(num_chunks) + " chunks, " +
          std::to_string(disk_store.disks().size()) +
          " disk scheduler threads, " + std::to_string(latency_us) +
          " us simulated device latency");

  obs::TraceSession session;  // lanes: io:reader + one per disk scheduler
  std::vector<SweepPoint> points;
  exp::Table table({"depth", "phase", "wall s", "hit rate", "ra hits",
                    "q-wait s", "MiB"});
  for (int depth : {0, 2, 8}) {
    io::ReaderOptions opts;
    opts.simulated_latency = std::chrono::microseconds(latency_us);
    // Large enough to hold the full timestep: the warm pass is all hits.
    opts.cache_bytes = disk_store.total_payload_bytes() + (1u << 20);
    if (!args.trace_path.empty()) opts.trace = &session;
    io::ChunkReader reader(disk_store, opts);

    const SweepPoint cold =
        measure(reader, num_chunks, depth, "cold", io::IoMetrics{});
    const SweepPoint warm =
        measure(reader, num_chunks, depth, "warm", cold.metrics);
    for (const SweepPoint& pt : {cold, warm}) {
      table.row({std::to_string(pt.depth), pt.phase,
                 exp::Table::num(pt.wall_s, 4), exp::Table::num(pt.hit_rate, 2),
                 std::to_string(pt.readahead_hits),
                 exp::Table::num(pt.queue_wait_s, 4),
                 exp::Table::num(exp::mb(pt.disk_bytes), 1)});
      points.push_back(pt);
    }
  }
  exp::print_rule();

  double cold_depth0 = 0.0, best_prefetch = -1.0;
  for (const SweepPoint& pt : points) {
    if (std::string(pt.phase) != "cold") continue;
    if (pt.depth == 0) cold_depth0 = pt.wall_s;
    if (pt.depth > 0 && (best_prefetch < 0.0 || pt.wall_s < best_prefetch)) {
      best_prefetch = pt.wall_s;
    }
  }
  // Readahead must never lose on a sequential scan (10% tolerance for noise).
  const bool prefetch_ok = best_prefetch <= cold_depth0 * 1.10;
  std::printf(
      "Cold depth-0 scan: %.4f s; best prefetched cold scan: %.4f s (%s).\n"
      "Depth 0 serializes every chunk behind the full device latency; any\n"
      "readahead overlaps that latency across the per-disk schedulers.\n",
      cold_depth0, best_prefetch, prefetch_ok ? "ok" : "REGRESSION");

  obs::MetricsRegistry reg;
  reg.set("num_chunks", static_cast<std::int64_t>(num_chunks));
  reg.set("latency_us", static_cast<std::int64_t>(latency_us));
  reg.set("total_mb", exp::mb(disk_store.total_payload_bytes()));
  reg.set("prefetch_ok", static_cast<std::int64_t>(prefetch_ok ? 1 : 0));
  reg.set("cold_depth0_s", cold_depth0);
  reg.set("best_prefetch_s", best_prefetch);
  for (const SweepPoint& pt : points) {
    const std::string k = "sweep.d" + std::to_string(pt.depth) + "." + pt.phase;
    reg.set(k + ".wall_s", pt.wall_s);
    reg.set(k + ".hit_rate", pt.hit_rate);
    reg.set(k + ".readahead_hits", static_cast<std::int64_t>(pt.readahead_hits));
  }
  io::publish(points.back().metrics, reg);  // cumulative depth-8 reader

  // Per-disk detail rides along as an extra top-level member.
  std::string sweep = "\"sweep\":[";
  char buf[256];
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& pt = points[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"depth\":%d,\"phase\":\"%s\",\"wall_s\":%.6f,"
                  "\"hit_rate\":%.4f,\"readahead_hits\":%llu,"
                  "\"queue_wait_s\":%.6f,\"disk_mb\":%.2f,\"per_disk\":[",
                  i ? "," : "", pt.depth, pt.phase, pt.wall_s, pt.hit_rate,
                  static_cast<unsigned long long>(pt.readahead_hits),
                  pt.queue_wait_s, exp::mb(pt.disk_bytes));
    sweep += buf;
    for (std::size_t d = 0; d < pt.metrics.disks.size(); ++d) {
      const io::DiskMetrics& dm = pt.metrics.disks[d];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"host\":%d,\"disk\":%d,\"requests\":%llu,"
                    "\"queue_wait_s\":%.6f,\"max_depth\":%zu}",
                    d ? "," : "", dm.host, dm.disk,
                    static_cast<unsigned long long>(dm.requests),
                    dm.queue_wait_s, dm.max_queue_depth);
      sweep += buf;
    }
    sweep += "]}";
  }
  sweep += "]";
  exp::maybe_write_trace(args, session);
  exp::print_json("io_storage", reg, sweep);

  fs::remove_all(root);
  return prefetch_ok ? 0 : 1;
}
