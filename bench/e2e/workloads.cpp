#include "workloads.hpp"

#include <algorithm>
#include <chrono>

#include "data/decluster.hpp"
#include "tests/test_util.hpp"  // direct_render: the tests' reference renderer
#include "viz/marching_cubes.hpp"

namespace e2e {

namespace fs = std::filesystem;
using namespace dc;

namespace {

// Every workload renders the same grid: 96^3 cells in 8^3 = 512 chunks of
// 12^3, declustered over 64 files. Only the pipeline, image, placement and
// storage regime differ.
constexpr int kGrid = 96;
constexpr int kChunksPerAxis = 8;
constexpr int kFiles = 64;

// The seed's field fixes the surface's shape; the iso value fixes its size.
// Surface area, and with it extract and raster work per frame, varies by
// about 2x between plume fields at one iso value, so each seed gets the iso
// value at which a coarse (48^3) sampling of the stored timesteps yields
// kCoarseTriangles per timestep — about 90k triangles on the 96^3 grid.
constexpr int kCoarseGrid = 48;
constexpr double kCoarseTriangles = 22000.0;

/// Mean marching-cubes triangle count over `samples` (one coarse grid per
/// timestep) at `iso`.
double mean_triangles(const std::vector<std::vector<float>>& samples, float iso) {
  std::vector<viz::Triangle> tris;
  double total = 0.0;
  for (const std::vector<float>& s : samples) {
    tris.clear();
    total += static_cast<double>(viz::marching_cubes(s.data(), kCoarseGrid, kCoarseGrid,
                                                     kCoarseGrid, 0.f, 0.f, 0.f, iso, tris)
                                     .triangles);
  }
  return total / static_cast<double>(samples.size());
}

/// Bisects for the iso value below the field's median at which the mean
/// coarse triangle count reaches the target; the count grows toward the
/// median, where the level set is largest.
float calibrate_iso(const data::PlumeField& field, int timesteps) {
  const data::ChunkLayout coarse(data::GridDims{kCoarseGrid, kCoarseGrid, kCoarseGrid},
                                 1, 1, 1);
  std::vector<std::vector<float>> samples;
  for (int t : {0, timesteps / 3, 2 * timesteps / 3, timesteps - 1}) {
    samples.emplace_back();
    field.fill_chunk(coarse, 0, static_cast<float>(t), samples.back());
  }
  std::vector<float> sorted = samples.front();
  std::sort(sorted.begin(), sorted.end());
  float lo = sorted[sorted.size() / 20];
  float hi = sorted[sorted.size() / 2];
  for (int i = 0; i < 16; ++i) {
    const float mid = 0.5f * (lo + hi);
    (mean_triangles(samples, mid) < kCoarseTriangles ? lo : hi) = mid;
  }
  return 0.5f * (lo + hi);
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> all;
  const std::vector<data::FileLocation> two_hosts_two_disks = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}};

  Workload warm;
  warm.name = "render_warm";
  warm.config = viz::PipelineConfig::kRE_Ra_M;
  warm.hsr = viz::HsrAlgorithm::kActivePixel;
  warm.image = 512;
  warm.timesteps = 16;
  warm.disks = two_hosts_two_disks;
  warm.data_hosts = viz::one_each({0, 1});
  warm.raster_hosts = {{2, 2}};
  warm.merge_host = 3;
  warm.warm_cache = true;
  all.push_back(warm);

  Workload cold = warm;
  cold.name = "render_cold";
  cold.hsr = viz::HsrAlgorithm::kZBuffer;
  cold.image = 256;
  cold.timesteps = 8;
  cold.cache_bytes = 2u << 20;  // under half a timestep: every frame rereads
  cold.latency_us = 500;
  cold.warm_cache = false;
  all.push_back(cold);

  Workload spill;
  spill.name = "render_spill";
  spill.config = viz::PipelineConfig::kR_ERa_M;
  spill.hsr = viz::HsrAlgorithm::kActivePixel;
  spill.image = 1024;
  spill.timesteps = 16;
  spill.disks = {{0, 0}, {0, 1}};
  spill.data_hosts = {{0, 1}};
  spill.raster_hosts = {{1, 2}};
  spill.merge_host = 2;
  spill.memory_budget_bytes = 1u << 20;
  spill.warm_cache = true;
  all.push_back(spill);

  Workload dist;
  dist.name = "render_dist_tiled";
  dist.config = viz::PipelineConfig::kRERa_M;
  dist.hsr = viz::HsrAlgorithm::kActivePixel;
  dist.image = 512;
  dist.timesteps = 32;
  dist.disks = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  dist.data_hosts = viz::one_each({0, 1, 2, 3});
  dist.merge_host = 0;
  dist.cache_bytes = 64u << 20;
  dist.ranks = 4;
  all.push_back(dist);
  return all;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Dataset::Dataset(const Workload& w, std::uint64_t seed)
    : layout(data::GridDims{kGrid, kGrid, kGrid}, kChunksPerAxis,
             kChunksPerAxis, kChunksPerAxis),
      store(layout, data::hilbert_decluster(layout, kFiles), kFiles),
      field(seed),
      iso(calibrate_iso(field, w.timesteps)) {
  store.place_uniform(w.disks);
}

Stage::Stage(const Workload& w, const Dataset& ds, fs::path dir,
             int timesteps)
    : root(std::move(dir)) {
  const double t0 = now_s();
  fs::remove_all(root);
  io::materialize_plume_dataset(root, ds.store, ds.field, /*base_timestep=*/0,
                                timesteps);
  const double t1 = now_s();
  store = std::make_unique<io::ChunkStore>(root);
  const double t2 = now_s();
  // Rank processes open their own readers after fork: a reader owns disk
  // scheduler threads, and the parent must stay single-threaded to fork.
  if (w.ranks == 0) {
    reader = std::make_unique<io::ChunkReader>(*store, reader_options(w));
    if (w.warm_cache) {
      for (int t = 0; t < timesteps; ++t) {
        for (int c = 0; c < ds.layout.num_chunks(); ++c) {
          (void)reader->read(c, t);
        }
      }
    }
  }
  ingest_s = t1 - t0;
  open_s = t2 - t1;
  total_s = now_s() - t0;
}

Stage::~Stage() {
  reader.reset();
  store.reset();
  std::error_code ec;
  fs::remove_all(root, ec);
}

io::ReaderOptions reader_options(const Workload& w) {
  io::ReaderOptions o;
  o.cache_bytes = w.cache_bytes;
  o.simulated_latency = std::chrono::microseconds(w.latency_us);
  return o;
}

core::RuntimeConfig runtime_config(const Workload& w) {
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  cfg.memory_budget_bytes = w.memory_budget_bytes;
  return cfg;
}

viz::IsoAppSpec app_spec(const Workload& w, const Dataset& ds,
                         io::ChunkReader* reader) {
  viz::IsoAppSpec spec;
  spec.config = w.config;
  spec.hsr = w.hsr;
  spec.data_hosts = w.data_hosts;
  spec.raster_hosts = w.raster_hosts;
  spec.merge_host = w.merge_host;
  spec.keep_images = false;
  viz::VizWorkload& v = spec.workload;
  v.store = &ds.store;
  v.field = &ds.field;
  v.reader = reader;
  v.iso_value = ds.iso;
  v.width = w.image;
  v.height = w.image;
  return spec;
}

std::vector<std::uint64_t> reference_digests(const Workload& w,
                                             const Dataset& ds,
                                             int timesteps) {
  const viz::VizWorkload v = app_spec(w, ds, nullptr).workload;
  std::vector<std::uint64_t> digests;
  for (int t = 0; t < timesteps; ++t) {
    digests.push_back(test::direct_render(v, t).digest());
  }
  return digests;
}

}  // namespace e2e
