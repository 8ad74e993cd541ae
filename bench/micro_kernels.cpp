// Micro benchmarks of the computational kernels: marching cubes, the
// half-space rasterizer, Hilbert indexing, z-buffer merging, active-pixel
// rasterization. The *Plume benchmarks run the end-to-end benchmark's traffic
// (a 96^3 plume field in 12^3-cell chunks, about 1 fragment per triangle at
// 512^2); the others run synthetic shapes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "data/hilbert.hpp"
#include "data/synth.hpp"
#include "data/volume.hpp"
#include "sim/rng.hpp"
#include "viz/active_pixel.hpp"
#include "viz/camera.hpp"
#include "viz/marching_cubes.hpp"
#include "viz/raster.hpp"
#include "viz/zbuffer.hpp"

namespace {

using namespace dc;

std::vector<float> sphere_grid(int n) {
  std::vector<float> s;
  const float c = static_cast<float>(n) / 2.f;
  s.reserve(static_cast<std::size_t>(n + 1) * (n + 1) * (n + 1));
  for (int z = 0; z <= n; ++z) {
    for (int y = 0; y <= n; ++y) {
      for (int x = 0; x <= n; ++x) {
        const float dx = static_cast<float>(x) - c;
        const float dy = static_cast<float>(y) - c;
        const float dz = static_cast<float>(z) - c;
        s.push_back(std::sqrt(dx * dx + dy * dy + dz * dz));
      }
    }
  }
  return s;
}

/// One timestep of the end-to-end benchmark's dataset: a 96^3 plume field
/// (seed 2002) in 8^3 chunks of 12^3 cells plus the one-point halo, at the
/// iso value where a 48^3 sampling yields 22000 triangles (88k on the full
/// grid), calibrated as bench/e2e does but on timestep 0 alone.
struct PlumeChunks {
  static constexpr int kGrid = 96;
  data::ChunkLayout layout{data::GridDims{kGrid, kGrid, kGrid}, 8, 8, 8};
  std::vector<std::vector<float>> samples;
  float iso = 0.f;

  PlumeChunks() {
    const data::PlumeField field(2002);
    std::vector<float> coarse;
    field.fill_chunk(data::ChunkLayout(data::GridDims{48, 48, 48}, 1, 1, 1), 0, 0.f,
                     coarse);
    std::vector<float> sorted = coarse;
    std::sort(sorted.begin(), sorted.end());
    float lo = sorted[sorted.size() / 20], hi = sorted[sorted.size() / 2];
    std::vector<viz::Triangle> tris;
    for (int i = 0; i < 16; ++i) {
      const float mid = 0.5f * (lo + hi);
      tris.clear();
      const auto n = viz::marching_cubes(coarse.data(), 48, 48, 48, 0, 0, 0, mid, tris)
                         .triangles;
      (n < 22000 ? lo : hi) = mid;
    }
    iso = 0.5f * (lo + hi);
    samples.resize(static_cast<std::size_t>(layout.num_chunks()));
    for (int c = 0; c < layout.num_chunks(); ++c) {
      field.fill_chunk(layout, c, 0.f, samples[static_cast<std::size_t>(c)]);
    }
  }

  /// Extracts chunk `c` into `out`.
  viz::McStats extract(int c, std::vector<viz::Triangle>& out) const {
    const data::CellBox box = layout.chunk_box(c);
    return viz::marching_cubes(samples[static_cast<std::size_t>(c)].data(),
                               box.hi[0] - box.lo[0], box.hi[1] - box.lo[1],
                               box.hi[2] - box.lo[2], static_cast<float>(box.lo[0]),
                               static_cast<float>(box.lo[1]),
                               static_cast<float>(box.lo[2]), iso, out);
  }
};

const PlumeChunks& plume_chunks() {
  static const PlumeChunks chunks;
  return chunks;
}

// A sphere: a smooth surface crossing few cells, larger triangles than the
// plume's. BM_MarchingCubesPlume runs the benchmark's chunks.
void BM_MarchingCubes(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto samples = sphere_grid(n);
  std::vector<viz::Triangle> tris;
  for (auto _ : state) {
    tris.clear();
    const auto stats = viz::marching_cubes(samples.data(), n, n, n, 0, 0, 0,
                                           static_cast<float>(n) / 3.f, tris);
    benchmark::DoNotOptimize(stats.triangles);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MarchingCubes)->Arg(16)->Arg(32)->Arg(64);

// Every chunk of one timestep per iteration; items are cells.
void BM_MarchingCubesPlume(benchmark::State& state) {
  const PlumeChunks& plume = plume_chunks();
  std::vector<viz::Triangle> tris;
  std::uint64_t cells = 0;
  for (auto _ : state) {
    tris.clear();
    for (int c = 0; c < plume.layout.num_chunks(); ++c) {
      cells += plume.extract(c, tris).cells;
    }
    benchmark::DoNotOptimize(tris.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
}
BENCHMARK(BM_MarchingCubesPlume);

// 176-pixel triangles, 160x the plume's fragments per triangle at 512^2:
// per-pixel cost, not the per-triangle cost that dominates the benchmark
// (see BM_RasterizePlume).
void BM_Rasterize(benchmark::State& state) {
  sim::Rng rng(3);
  std::vector<viz::ScreenTriangle> tris;
  for (int i = 0; i < 256; ++i) {
    viz::ScreenTriangle t;
    t.v0 = {static_cast<float>(rng.uniform(0, 512)),
            static_cast<float>(rng.uniform(0, 512)), 1.f};
    t.v1 = {t.v0.x + 20.f, t.v0.y + 2.f, 2.f};
    t.v2 = {t.v0.x + 4.f, t.v0.y + 18.f, 3.f};
    tris.push_back(t);
  }
  std::uint64_t frags = 0;
  for (auto _ : state) {
    for (const auto& t : tris) {
      frags += viz::rasterize(t, 512, 512, [](int, int, float) {});
    }
  }
  benchmark::DoNotOptimize(frags);
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_Rasterize);

// The plume's triangles, projected by view 0 at range(0)^2 pixels: at 512^2
// most cover one pixel center or none. Items are triangles.
void BM_RasterizePlume(benchmark::State& state) {
  const int res = static_cast<int>(state.range(0));
  const PlumeChunks& plume = plume_chunks();
  std::vector<viz::Triangle> world;
  for (int c = 0; c < plume.layout.num_chunks(); ++c) plume.extract(c, world);
  const viz::Camera cam = viz::Camera::for_volume(PlumeChunks::kGrid, PlumeChunks::kGrid,
                                                  PlumeChunks::kGrid, res, res);
  std::vector<viz::ScreenTriangle> tris;
  for (const viz::Triangle& t : world) {
    viz::ScreenTriangle st;
    if (cam.project_position(t, st)) tris.push_back(st);
  }
  std::uint64_t frags = 0;
  for (auto _ : state) {
    for (const auto& t : tris) {
      frags += viz::rasterize(t, res, res, [](int, int, float) {});
    }
  }
  benchmark::DoNotOptimize(frags);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(tris.size()));
  state.counters["frags_per_tri"] =
      static_cast<double>(frags) /
      static_cast<double>(state.iterations() * static_cast<std::int64_t>(tris.size()));
}
BENCHMARK(BM_RasterizePlume)->Arg(256)->Arg(512)->Arg(1024);

void BM_HilbertIndex(benchmark::State& state) {
  sim::Rng rng(5);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    const std::uint32_t x = static_cast<std::uint32_t>(rng.below(1 << 10));
    const std::uint32_t y = static_cast<std::uint32_t>(rng.below(1 << 10));
    const std::uint32_t z = static_cast<std::uint32_t>(rng.below(1 << 10));
    acc ^= data::hilbert_index({x, y, z}, 10);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_HilbertIndex);

void BM_ZBufferApply(benchmark::State& state) {
  viz::ZBuffer zb(512, 512);
  sim::Rng rng(7);
  std::vector<viz::PixEntry> entries(4096);
  for (auto& e : entries) {
    e.index = static_cast<std::uint32_t>(rng.below(512 * 512));
    e.depth = static_cast<float>(rng.uniform(0, 100));
    e.rgba = static_cast<std::uint32_t>(rng.below(1 << 24));
  }
  for (auto _ : state) {
    for (const auto& e : entries) benchmark::DoNotOptimize(zb.apply(e));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(entries.size()));
}
BENCHMARK(BM_ZBufferApply);

// 87-pixel triangles, far larger than the plume's ~1 fragment per triangle:
// the WPA/MSA path's per-fragment cost.
void BM_ActivePixelAdd(benchmark::State& state) {
  sim::Rng rng(9);
  std::vector<viz::ScreenTriangle> tris;
  for (int i = 0; i < 64; ++i) {
    viz::ScreenTriangle t;
    t.v0 = {static_cast<float>(rng.uniform(0, 500)),
            static_cast<float>(rng.uniform(0, 500)), 1.f};
    t.v1 = {t.v0.x + 15.f, t.v0.y + 3.f, 2.f};
    t.v2 = {t.v0.x + 2.f, t.v0.y + 12.f, 3.f};
    tris.push_back(t);
  }
  const auto sink = [](const std::vector<viz::PixEntry>&) {};
  for (auto _ : state) {
    viz::ActivePixelRaster ap(512, 512, 4096);
    for (const auto& t : tris) ap.add(t, 0x123456, sink);
    ap.flush(sink);
    benchmark::DoNotOptimize(ap.entries_emitted());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ActivePixelAdd);

}  // namespace
