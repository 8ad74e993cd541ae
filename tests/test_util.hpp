#pragma once

#include <memory>
#include <vector>

#include "data/decluster.hpp"
#include "data/store.hpp"
#include "data/synth.hpp"
#include "sim/cluster.hpp"
#include "viz/filters.hpp"
#include "viz/image.hpp"
#include "viz/marching_cubes.hpp"
#include "viz/raster.hpp"
#include "viz/zbuffer.hpp"

namespace dc::test {

/// A small homogeneous test cluster: `n` identical 1-core nodes.
inline std::vector<int> add_plain_nodes(sim::Topology& topo, int n,
                                        const std::string& cls = "plain",
                                        int cores = 1, double mhz = 500.0) {
  sim::HostSpec spec;
  spec.name = cls;
  spec.host_class = cls;
  spec.cores = cores;
  spec.cpu_mhz = mhz;
  spec.num_disks = 1;
  spec.disk_bandwidth = 50e6;
  spec.nic_bandwidth = 125e6;
  return topo.add_hosts(n, spec);
}

/// A small dataset: grid^3 cells in chunks^3 chunks, declustered over files.
struct TestDataset {
  data::ChunkLayout layout;
  std::unique_ptr<data::DatasetStore> store;
  std::unique_ptr<data::PlumeField> field;
};

inline TestDataset make_dataset(int grid = 24, int chunks = 3, int files = 16,
                                std::uint64_t seed = 7) {
  TestDataset d;
  d.layout = data::ChunkLayout(data::GridDims{grid, grid, grid}, chunks, chunks,
                               chunks);
  d.store = std::make_unique<data::DatasetStore>(
      d.layout, data::hilbert_decluster(d.layout, files), files);
  d.field = std::make_unique<data::PlumeField>(seed);
  return d;
}

inline viz::VizWorkload make_workload(const TestDataset& d, int width = 64,
                                      int height = 64, float iso = 0.8f) {
  viz::VizWorkload w;
  w.store = d.store.get();
  w.field = d.field.get();
  w.iso_value = iso;
  w.width = width;
  w.height = height;
  return w;
}

/// Scales the compute costs so runs are CPU-bound (Raster-dominated, as in
/// the paper's workload) instead of disk-seek-bound at test scale.
inline void make_compute_bound(viz::VizWorkload& w, double factor = 100.0) {
  w.cost.mc_per_cell *= factor;
  w.cost.mc_per_active_cell *= factor;
  w.cost.mc_per_triangle *= factor;
  w.cost.raster_per_triangle *= factor;
  w.cost.raster_per_fragment *= factor;
}

/// Scales only the raster-stage costs: the regime of the paper's evaluation,
/// where Raster dominates (Table 2) and is the stage worth replicating and
/// offloading. Read/extract stay pinned to the data hosts.
inline void make_raster_bound(viz::VizWorkload& w, double factor = 1000.0) {
  w.cost.raster_per_triangle *= factor;
  w.cost.raster_per_fragment *= factor;
}

/// Reference renderer: extracts and rasterizes the whole dataset directly
/// into one z-buffer, bypassing the filter runtime entirely. Every
/// distributed configuration must reproduce this image bit-for-bit.
/// It calls the production marching_cubes and rasterize, so it checks the
/// runtime, not the kernels: a kernel change shows in neither side's digest.
/// The kernels are checked against frozen copies of their earlier versions
/// in test_marching_cubes.cpp and test_raster.cpp.
inline viz::Image direct_render(const viz::VizWorkload& w, int uow = 0,
                                std::uint32_t background = viz::RenderSink{}.background) {
  const viz::Camera cam = w.make_camera(uow);
  viz::ZBuffer zb(w.width, w.height);
  std::vector<float> scratch;
  std::vector<viz::Triangle> tris;
  const float scalar_norm = w.iso_value / w.field_max;
  for (int c = 0; c < w.store->layout().num_chunks(); ++c) {
    tris.clear();
    const data::CellBox box = w.store->layout().chunk_box(c);
    w.field->fill_chunk(w.store->layout(), c, w.timestep(uow), scratch);
    viz::marching_cubes(scratch.data(), box.hi[0] - box.lo[0],
                        box.hi[1] - box.lo[1], box.hi[2] - box.lo[2],
                        static_cast<float>(box.lo[0]),
                        static_cast<float>(box.lo[1]),
                        static_cast<float>(box.lo[2]), w.iso_value, tris);
    for (const viz::Triangle& t : tris) {
      viz::ScreenTriangle st;
      if (!cam.project(t, st)) continue;
      const std::uint32_t rgba =
          viz::shade_flat(st.world_normal, cam.view_dir(), scalar_norm);
      viz::rasterize(st, w.width, w.height, [&](int x, int y, float depth) {
        zb.apply(static_cast<std::uint32_t>(y) * static_cast<std::uint32_t>(w.width) +
                     static_cast<std::uint32_t>(x),
                 depth, rgba);
      });
    }
  }
  return zb.to_image(background);
}

}  // namespace dc::test
