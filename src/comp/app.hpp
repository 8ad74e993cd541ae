#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "comp/filters.hpp"
#include "comp/tile_map.hpp"
#include "viz/app.hpp"
#include "viz/distributed.hpp"

namespace dc::comp {

/// Compositor-side parameters of a tiled render: which hosts own tiles (one
/// TM transparent copy per listed host; the owner index — the unit of the
/// dead-owner bitmask and of kTileOwner routing — is the position in this
/// list), where the final gather runs, and the tile geometry/seed.
struct TiledCompSpec {
  int tile_px = 32;
  std::vector<int> owner_hosts;  ///< distinct hosts, at most 64
  int gather_host = 0;
  std::uint64_t map_seed = 0x7d0u;  ///< tile->owner hash seed
  /// Producer -> TM fragment stream buffers (Policy::kTileOwner).
  std::size_t frag_buffer_bytes = 64 * 1024;
  /// TM -> G stream buffers; raised automatically if one dense tile block
  /// would not fit.
  std::size_t gather_buffer_bytes = 64 * 1024;
};

/// A built tiled-compositor app: the graph/placement/sink bundle the
/// engines consume, plus the published tile map and the shared compositor
/// counters.
struct TiledApp {
  viz::IsoApp app;
  std::shared_ptr<const TileMap> map;
  std::shared_ptr<CompStats> stats;
  int tile_merge_filter = -1;  ///< TM filter id
  int gather_filter = -1;      ///< G filter id
};

/// Builds the tiled variant of `spec`'s pipeline: the single Merge copy is
/// replaced by per-host tile owners (TM) and a final gather (G). The
/// producer -> TM stream runs under Policy::kTileOwner regardless of the
/// run-wide policy; everything upstream keeps the run default. For the same
/// spec, config, and seed the gathered images are bit-identical to
/// build_iso_app's single-Merge output.
[[nodiscard]] TiledApp build_tiled_iso_app(const viz::IsoAppSpec& spec,
                                           const TiledCompSpec& comp);

/// Outcome of a native (threaded) tiled render.
struct TiledNativeRun {
  std::vector<double> per_uow;  ///< wall-clock makespan per timestep
  double avg = 0.0;
  core::Metrics metrics;
  std::shared_ptr<viz::RenderSink> sink;
  std::shared_ptr<const TileMap> map;
  std::shared_ptr<CompStats> stats;
};

/// Builds and runs the tiled app on the native threaded engine.
TiledNativeRun run_tiled_iso_app_native(const viz::IsoAppSpec& spec,
                                        const TiledCompSpec& comp,
                                        const core::RuntimeConfig& cfg,
                                        int uows, exec::HostInfo hosts = {});

/// Runs the tiled app on the multi-process distributed engine by plugging
/// build_tiled_iso_app into DistributedRunOptions::builder. Owner hosts are
/// rank ids here; the rank hosting G reports the images.
viz::DistributedRenderRun run_tiled_iso_app_distributed(
    const viz::IsoAppSpec& spec, const TiledCompSpec& comp,
    const core::RuntimeConfig& cfg, int uows, int num_ranks,
    viz::DistributedRunOptions opts = {});

}  // namespace dc::comp
