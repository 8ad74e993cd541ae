#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "exec/engine.hpp"
#include "viz/filters.hpp"

namespace dc::viz {

/// The three decompositions evaluated in the paper (Figure 3). Merge is
/// always a separate filter with exactly one copy.
enum class PipelineConfig {
  kRERa_M,   ///< fully fused workers (SPMD-like)
  kRE_Ra_M,  ///< decoupled raster
  kR_ERa_M   ///< decoupled read
};

[[nodiscard]] const char* to_string(PipelineConfig c);

/// Copies of a filter to run on one host.
struct HostCopies {
  int host = -1;
  int copies = 1;
};

/// One copy on each listed host.
[[nodiscard]] std::vector<HostCopies> one_each(const std::vector<int>& hosts);

/// Full description of one isosurface-rendering run.
struct IsoAppSpec {
  PipelineConfig config = PipelineConfig::kRE_Ra_M;
  HsrAlgorithm hsr = HsrAlgorithm::kActivePixel;
  VizWorkload workload;
  std::vector<HostCopies> data_hosts;    ///< R / RE / RERa placement
  std::vector<HostCopies> raster_hosts;  ///< Ra / ERa placement (unused for RERa_M)
  int merge_host = 0;
  /// R -> E voxel-block stream. Smaller than the other streams: these
  /// buffers carry the extract+raster work granules that the writer
  /// policies schedule, and the demand signal needs enough of them
  /// (the paper's R->E stream has ~6x more buffers than E->Ra).
  std::size_t block_buffer_bytes = 16 * 1024;
  std::size_t tri_buffer_bytes = 64 * 1024;    ///< E -> Ra
  std::size_t pix_buffer_bytes = 64 * 1024;    ///< Ra -> M
  bool keep_images = true;
  /// Optional observability session attached to the engine for the whole run
  /// (Runtime::set_obs / Engine::set_obs). The caller owns it — and wires
  /// the SAME session into the workload's ChunkReader (ReaderOptions::trace)
  /// when it wants disk-scheduler lanes in the capture. Must outlive the run.
  obs::TraceSession* trace = nullptr;
};

/// An assembled (but not yet instantiated) application.
struct IsoApp {
  core::Graph graph;
  core::Placement placement;
  std::shared_ptr<RenderSink> sink;
  int merge_filter = -1;
  int raster_filter = -1;  ///< the filter whose copies receive E->Ra buffers
                           ///< (Table 3); -1 for RERa_M
};

/// Builds graph + placement + result sink for `spec`.
[[nodiscard]] IsoApp build_iso_app(const IsoAppSpec& spec);

/// Outcome of rendering `uows` timesteps.
struct RenderRun {
  std::vector<sim::SimTime> per_uow;  ///< makespan per timestep
  sim::SimTime avg = 0.0;
  core::Metrics metrics;
  std::shared_ptr<RenderSink> sink;
  int raster_filter = -1;
};

/// Convenience: build, run `uows` units of work, collect results.
RenderRun run_iso_app(sim::Topology& topo, const IsoAppSpec& spec,
                      const core::RuntimeConfig& rt_config, int uows);

/// Outcome of rendering `uows` timesteps on the native threaded engine
/// (exec::Engine): same pipelines, real OS threads, wall-clock seconds.
struct NativeRenderRun {
  std::vector<double> per_uow;  ///< wall-clock makespan per timestep
  double avg = 0.0;
  core::Metrics metrics;
  std::shared_ptr<RenderSink> sink;
  int raster_filter = -1;
  /// Memory-governor counters (all zero when
  /// RuntimeConfig::memory_budget_bytes == 0).
  core::GovernorStats governor;
};

/// Convenience: build, run `uows` units of work on real threads. For the
/// same spec, config, and seed the merged images are bit-identical to
/// run_iso_app's (same filters, same RNG streams, order-independent merge).
NativeRenderRun run_iso_app_native(const IsoAppSpec& spec,
                                   const core::RuntimeConfig& rt_config,
                                   int uows, exec::HostInfo hosts = {});

}  // namespace dc::viz
