// The four end-to-end workloads and their set-up: dataset generation from
// the seed, materialization into an on-disk chunk store, the reader and app
// each one runs, and the thread-free reference render every frame is
// checked against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "data/store.hpp"
#include "data/synth.hpp"
#include "io/chunk_store.hpp"
#include "io/reader.hpp"
#include "viz/app.hpp"

namespace e2e {

/// One named workload: pipeline, placement, and the storage and memory
/// regime it renders under. README.md says why each exists.
struct Workload {
  const char* name = "";
  dc::viz::PipelineConfig config = dc::viz::PipelineConfig::kRE_Ra_M;
  dc::viz::HsrAlgorithm hsr = dc::viz::HsrAlgorithm::kActivePixel;
  int image = 512;     ///< square image edge, pixels
  int timesteps = 16;  ///< T: timesteps stored = frames per engine call
  std::vector<dc::data::FileLocation> disks;  ///< files are dealt over these
  std::vector<dc::viz::HostCopies> data_hosts;
  std::vector<dc::viz::HostCopies> raster_hosts;
  int merge_host = 0;
  std::size_t cache_bytes = 256u << 20;
  int latency_us = 0;  ///< emulated device latency per disk request
  std::size_t memory_budget_bytes = 0;
  bool warm_cache = false;  ///< set-up reads every chunk once
  int ranks = 0;  ///< 0: native engine; else processes, tiled merge (32 px tiles)
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when no workload has this name.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// What the seed determines: the plume field, its declustered placement,
/// and the iso value that gives its surface the workload's fixed size.
struct Dataset {
  Dataset(const Workload& w, std::uint64_t seed);
  dc::data::ChunkLayout layout;
  dc::data::DatasetStore store;
  dc::data::PlumeField field;
  float iso = 0.0f;
};

/// One set-up: the store materialized under `root` and opened, plus the
/// shared reader for native workloads, each part timed. Removes `root` when
/// destroyed.
class Stage {
 public:
  Stage(const Workload& w, const Dataset& ds, std::filesystem::path root,
        int timesteps);
  ~Stage();
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  std::filesystem::path root;
  std::unique_ptr<dc::io::ChunkStore> store;
  std::unique_ptr<dc::io::ChunkReader> reader;  ///< null for ranks > 0
  double ingest_s = 0.0;  ///< materialize_plume_dataset
  double open_s = 0.0;    ///< ChunkStore open
  double total_s = 0.0;   ///< everything, warm-up included
};

[[nodiscard]] dc::io::ReaderOptions reader_options(const Workload& w);
[[nodiscard]] dc::core::RuntimeConfig runtime_config(const Workload& w);
/// The app spec; `reader` may be null only for a spec the ranks complete.
[[nodiscard]] dc::viz::IsoAppSpec app_spec(const Workload& w,
                                           const Dataset& ds,
                                           dc::io::ChunkReader* reader);

/// Digest of each timestep in [0, timesteps) as `test::direct_render`, the
/// differential tests' single-threaded reference renderer, draws it
/// straight from the in-memory field.
[[nodiscard]] std::vector<std::uint64_t> reference_digests(const Workload& w,
                                                           const Dataset& ds,
                                                           int timesteps);

[[nodiscard]] double now_s();

}  // namespace e2e
