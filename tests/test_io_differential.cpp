#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/runtime.hpp"
#include "exec/engine.hpp"
#include "io/chunk_store.hpp"
#include "io/reader.hpp"
#include "sort/external_sort.hpp"
#include "test_util.hpp"
#include "viz/app.hpp"

// Out-of-core differential harness: the same rendering spec runs once fully
// in memory (chunks synthesized from the analytic field) and once fully out
// of core (chunks streamed from the on-disk store through the per-disk
// scheduler threads + block cache). The store was materialized from the very
// same field, so the merged images must be bit-identical — any divergence
// means the storage path corrupted, dropped, or re-ordered data.

namespace dc {
namespace {

namespace fs = std::filesystem;

struct IoDifferential : ::testing::Test {
  test::TestDataset ds = test::make_dataset(24, 3, 16);
  fs::path root;
  std::unique_ptr<io::ChunkStore> store;
  std::unique_ptr<io::ChunkReader> reader;

  void TearDown() override {
    reader.reset();
    store.reset();
    if (!root.empty()) fs::remove_all(root);
  }

  /// Materializes the dataset's current placement for `uows` timesteps and
  /// opens the reader over it.
  void materialize(const std::string& name, int uows,
                   io::ReaderOptions opts = {}) {
    root = fs::temp_directory_path() / ("dc_io_diff_" + name);
    fs::remove_all(root);
    io::materialize_plume_dataset(root, *ds.store, *ds.field,
                                  /*base_timestep=*/0, uows);
    store = std::make_unique<io::ChunkStore>(root);
    reader = std::make_unique<io::ChunkReader>(*store, opts);
  }

  void place_uniform(const std::vector<int>& hosts, int disks = 2) {
    std::vector<data::FileLocation> locs;
    for (int h : hosts) {
      for (int d = 0; d < disks; ++d) locs.push_back(data::FileLocation{h, d});
    }
    ds.store->place_uniform(locs);
  }

  /// Section 4.5 skew: start uniform over all hosts, then move `fraction` of
  /// the first half's files onto the second half.
  void place_skewed(const std::vector<int>& hosts, double fraction) {
    place_uniform(hosts, /*disks=*/1);
    const auto mid = hosts.size() / 2;
    const std::vector<int> from(hosts.begin(), hosts.begin() + mid);
    std::vector<data::FileLocation> to;
    for (std::size_t i = mid; i < hosts.size(); ++i) {
      to.push_back(data::FileLocation{hosts[i], 0});
      to.push_back(data::FileLocation{hosts[i], 1});
    }
    ds.store->move_fraction(from, to, fraction);
  }

  viz::IsoAppSpec spec(viz::PipelineConfig config, viz::HsrAlgorithm hsr,
                       std::vector<viz::HostCopies> data,
                       std::vector<viz::HostCopies> raster, int merge) {
    viz::IsoAppSpec s;
    s.workload = test::make_workload(ds, 64, 64);
    s.config = config;
    s.hsr = hsr;
    s.data_hosts = std::move(data);
    s.raster_hosts = std::move(raster);
    s.merge_host = merge;
    return s;
  }

  /// Runs the native engine in-memory and out-of-core and asserts
  /// bit-identical images (and both identical to the reference renderer).
  /// With `reads` set, it receives the out-of-core run's read calls.
  void expect_ooc_identical(viz::IsoAppSpec s, const core::RuntimeConfig& cfg,
                            int uows = 1, int prefetch_depth = 2,
                            std::uint64_t* reads = nullptr) {
    ASSERT_NE(reader, nullptr) << "materialize() first";
    s.workload.reader = nullptr;
    const viz::NativeRenderRun mem = viz::run_iso_app_native(s, cfg, uows);

    s.workload.reader = reader.get();
    s.workload.prefetch_depth = prefetch_depth;
    const std::uint64_t reads_before = reader->metrics().read_calls;
    const viz::NativeRenderRun ooc = viz::run_iso_app_native(s, cfg, uows);

    ASSERT_EQ(mem.sink->images.size(), static_cast<std::size_t>(uows));
    ASSERT_EQ(ooc.sink->images.size(), static_cast<std::size_t>(uows));
    for (int u = 0; u < uows; ++u) {
      EXPECT_EQ(mem.sink->images[static_cast<std::size_t>(u)],
                ooc.sink->images[static_cast<std::size_t>(u)])
          << "uow " << u;
      s.workload.reader = nullptr;
      EXPECT_EQ(ooc.sink->digests[static_cast<std::size_t>(u)],
                test::direct_render(s.workload, u).digest())
          << "uow " << u;
    }
    if (reads != nullptr) {
      *reads = reader->metrics().read_calls - reads_before;
      return;
    }
    // The out-of-core run really went through the storage subsystem.
    const io::IoMetrics m = reader->metrics();
    EXPECT_GT(m.read_calls, 0u);
    EXPECT_GT(m.total_disk_bytes(), 0u);
  }
};

// ---- uniform placement, Z-buffer, round robin -----------------------------

TEST_F(IoDifferential, UniformZBufferRoundRobin) {
  place_uniform({0, 1});
  materialize("uniform_zb_rr", 1);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kRoundRobin;
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, viz::HsrAlgorithm::kZBuffer,
                viz::one_each({0, 1}), {{2, 2}, {3, 2}}, 3);
  expect_ooc_identical(s, cfg);
}

// ---- uniform placement, Active Pixel, demand driven -----------------------

TEST_F(IoDifferential, UniformActivePixelDemandDriven) {
  place_uniform({0, 1, 2, 3}, /*disks=*/1);
  materialize("uniform_ap_dd", 1);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, viz::HsrAlgorithm::kActivePixel,
                viz::one_each({0, 1, 2, 3}), viz::one_each({0, 1, 2, 3}), 3);
  expect_ooc_identical(s, cfg);
}

// ---- arena-backed reads: parity AND slot conservation ---------------------

TEST_F(IoDifferential, ArenaBackedReadsAreIdenticalAndConserved) {
  // The disk scheduler now serves every read into a slot leased from the
  // global BufferArena (the disk end of the zero-copy path). Same parity
  // bar as every other differential — and once the reader (whose block
  // cache pins slots) is gone, every slot leased for reads is back home.
  auto& arena = core::BufferArena::global();
  const core::ArenaStats before = arena.stats();

  place_uniform({0, 1});
  materialize("arena_reads", 1);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, viz::HsrAlgorithm::kActivePixel,
                viz::one_each({0, 1}), {{2, 2}, {3, 2}}, 3);
  expect_ooc_identical(s, cfg);

  EXPECT_GT(arena.stats().slots_leased, before.slots_leased)
      << "out-of-core reads bypassed the arena";
  reader.reset();  // drops the block cache and its pinned slots
  store.reset();
  EXPECT_EQ(arena.stats().outstanding(), before.outstanding());
}

// ---- skewed placement, Z-buffer, weighted round robin ---------------------

TEST_F(IoDifferential, SkewedZBufferWeightedRoundRobin) {
  place_skewed({0, 1, 2, 3}, 0.75);
  materialize("skewed_zb_wrr", 1);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kWeightedRoundRobin;
  auto s = spec(viz::PipelineConfig::kR_ERa_M, viz::HsrAlgorithm::kZBuffer,
                viz::one_each({0, 1, 2, 3}), {{1, 1}, {2, 2}, {3, 1}}, 2);
  expect_ooc_identical(s, cfg);
}

// ---- skewed placement, Active Pixel, fused pipeline, multi-UOW ------------

TEST_F(IoDifferential, SkewedActivePixelFusedMultiUow) {
  place_skewed({0, 1, 2, 3}, 0.5);
  materialize("skewed_ap_fused", 2);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  auto s = spec(viz::PipelineConfig::kRERa_M, viz::HsrAlgorithm::kActivePixel,
                viz::one_each({0, 1, 2, 3}), {}, 3);
  s.workload.vary_view_per_uow = true;
  expect_ooc_identical(s, cfg, /*uows=*/2);
}

// ---- prefetch disabled entirely: still identical --------------------------

TEST_F(IoDifferential, PrefetchDepthZeroStillIdentical) {
  place_uniform({0, 1});
  materialize("no_prefetch", 1);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kRoundRobin;
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, viz::HsrAlgorithm::kZBuffer,
                viz::one_each({0, 1}), viz::one_each({2, 3}), 3);
  expect_ooc_identical(s, cfg, /*uows=*/1, /*prefetch_depth=*/0);
  EXPECT_EQ(reader->metrics().cache.prefetch_issued, 0u);
}

// ---- per-disk readahead: every Read-side filter, two disks per host -------

/// The structured outcome of one UOW of `s` on the sim engine, over four
/// nodes with two disks each (the placement's disk count).
core::UowOutcome sim_outcome(const viz::IsoAppSpec& s,
                             const core::RuntimeConfig& cfg) {
  sim::Simulation simulation;
  sim::Topology topo(simulation);
  sim::HostSpec host;
  host.cores = 1;
  host.cpu_mhz = 500.0;
  host.num_disks = 2;
  host.disk_bandwidth = 50e6;
  host.nic_bandwidth = 125e6;
  topo.add_hosts(4, host);
  viz::IsoApp app = viz::build_iso_app(s);
  core::Runtime rt(topo, app.graph, app.placement, cfg);
  return rt.run_uow_outcome();
}

TEST_F(IoDifferential, PerDiskReadaheadEveryReadFilterTwoDisksPerHost) {
  place_uniform({0, 1}, /*disks=*/2);
  io::ReaderOptions opts;
  opts.simulated_latency = std::chrono::microseconds(50);
  materialize("per_disk_readahead", 1, opts);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  // R-ERa-M, RE-Ra-M and RERa-M: ReadFilter, ReadExtractFilter and
  // ReadExtractRasterFilter. Two copies per data host share its disks.
  for (viz::PipelineConfig config :
       {viz::PipelineConfig::kR_ERa_M, viz::PipelineConfig::kRE_Ra_M,
        viz::PipelineConfig::kRERa_M}) {
    for (int depth : {0, 2}) {
      SCOPED_TRACE(std::string(viz::to_string(config)) + " depth " +
                   std::to_string(depth));
      auto s = spec(config, viz::HsrAlgorithm::kZBuffer, {{0, 2}, {1, 2}},
                    viz::one_each({2, 3}), 3);
      expect_ooc_identical(s, cfg, /*uows=*/1, depth);

      s.workload.prefetch_depth = depth;
      s.workload.reader = nullptr;
      const core::UowOutcome mem = sim_outcome(s, cfg);
      s.workload.reader = reader.get();
      const core::UowOutcome ooc = sim_outcome(s, cfg);
      EXPECT_EQ(ooc.status, core::UowStatus::kComplete);
      EXPECT_EQ(ooc.status, mem.status);
      EXPECT_EQ(ooc.makespan, mem.makespan);
      EXPECT_EQ(ooc.dead_filters, mem.dead_filters);
      EXPECT_EQ(ooc.failovers, mem.failovers);
      EXPECT_EQ(ooc.retransmits, mem.retransmits);
      EXPECT_EQ(ooc.buffers_lost, mem.buffers_lost);
      EXPECT_EQ(ooc.buffers_duplicated, mem.buffers_duplicated);
    }
  }
}

// ---- value-range pruning: exact on every Read-side filter -----------------

/// (chunk, timestep) pairs of timesteps [0, uows) from which marching cubes
/// extracts at least one triangle at `iso`: the chunks the surface crosses.
std::uint64_t crossing_pairs(const test::TestDataset& ds, int uows, float iso) {
  std::uint64_t n = 0;
  std::vector<float> samples;
  std::vector<viz::Triangle> tris;
  for (int t = 0; t < uows; ++t) {
    for (int c = 0; c < ds.layout.num_chunks(); ++c) {
      const data::CellBox box = ds.layout.chunk_box(c);
      ds.field->fill_chunk(ds.layout, c, static_cast<float>(t), samples);
      tris.clear();
      viz::marching_cubes(samples.data(), box.hi[0] - box.lo[0],
                          box.hi[1] - box.lo[1], box.hi[2] - box.lo[2], 0, 0, 0,
                          iso, tris);
      if (!tris.empty()) ++n;
    }
  }
  return n;
}

TEST_F(IoDifferential, ValueRangePruningIsExactOnEveryReadFilter) {
  // Out of core, ChunkPlan reads only the chunks whose stored range the
  // isosurface can cross, so a chunk of a UOW costs one read call iff
  // marching cubes extracts a triangle from it; the images stay
  // bit-identical to the in-memory run, which reads every chunk.
  // 3^3 chunks at the default iso: every chunk crosses, nothing is pruned.
  // 6^3 chunks: the default iso prunes some; an iso below the field minimum
  // (no sample below it) or above its maximum (every sample below it)
  // prunes all, so the UOWs complete with background frames and no reads.
  constexpr int kUows = 2;
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  for (int chunks : {3, 6}) {
    ds = test::make_dataset(24, chunks, 16);
    place_uniform({0, 1}, /*disks=*/2);
    materialize("pruning_" + std::to_string(chunks), kUows);
    const int num_chunks = ds.layout.num_chunks();
    const std::uint64_t all_pairs =
        static_cast<std::uint64_t>(num_chunks) * kUows;
    float lo = store->handle(0, 0).range.min;
    float hi = store->handle(0, 0).range.max;
    for (int t = 0; t < kUows; ++t) {
      for (int c = 0; c < num_chunks; ++c) {
        lo = std::min(lo, store->handle(c, t).range.min);
        hi = std::max(hi, store->handle(c, t).range.max);
      }
    }
    const float default_iso = test::make_workload(ds).iso_value;
    const std::vector<float> isos =
        chunks == 3 ? std::vector<float>{default_iso}
                    : std::vector<float>{lo - 1.0f, lo, default_iso, hi + 1.0f};
    for (float iso : isos) {
      const std::uint64_t crossing = crossing_pairs(ds, kUows, iso);
      if (chunks == 3) {
        EXPECT_EQ(crossing, all_pairs);
      } else if (iso == default_iso) {
        EXPECT_GT(crossing, 0u);
        EXPECT_LT(crossing, all_pairs);
      } else {
        EXPECT_EQ(crossing, 0u);
      }
      for (viz::PipelineConfig config :
           {viz::PipelineConfig::kR_ERa_M, viz::PipelineConfig::kRE_Ra_M,
            viz::PipelineConfig::kRERa_M}) {
        for (int depth : {0, 2}) {
          SCOPED_TRACE(std::to_string(chunks) + "^3 chunks, iso " +
                       std::to_string(iso) + ", " + viz::to_string(config) +
                       ", depth " + std::to_string(depth));
          auto s = spec(config,
                        config == viz::PipelineConfig::kR_ERa_M
                            ? viz::HsrAlgorithm::kZBuffer
                            : viz::HsrAlgorithm::kActivePixel,
                        {{0, 2}, {1, 2}}, viz::one_each({2, 3}), 3);
          s.workload.iso_value = iso;
          const std::uint64_t disk_before = reader->metrics().total_disk_bytes();
          std::uint64_t reads = 0;
          expect_ooc_identical(s, cfg, kUows, depth, &reads);
          EXPECT_EQ(reads, crossing);
          if (crossing == 0) {
            EXPECT_EQ(reader->metrics().total_disk_bytes(), disk_before);
            s.workload.reader = nullptr;
            for (int u = 0; u < kUows; ++u) {
              EXPECT_EQ(test::direct_render(s.workload, u).active_pixels(
                            viz::RenderSink{}.background),
                        0u);
            }
          }
        }
      }
    }
    reader.reset();
    store.reset();
    fs::remove_all(root);
  }
}

// ---- the simulator runs out-of-core too -----------------------------------

TEST_F(IoDifferential, SimulatorEngineMatchesOutOfCore) {
  // One disk per host: the simulated plain nodes model a single disk, and
  // the simulator charges read_disk() against it.
  place_uniform({0, 1}, /*disks=*/1);
  materialize("sim_ooc", 1);
  sim::Simulation simulation;
  sim::Topology topo(simulation);
  test::add_plain_nodes(topo, 4);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kRoundRobin;
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, viz::HsrAlgorithm::kActivePixel,
                viz::one_each({0, 1}), viz::one_each({2, 3}), 3);
  s.workload.reader = reader.get();
  const viz::RenderRun run = viz::run_iso_app(topo, s, cfg, 1);
  s.workload.reader = nullptr;
  EXPECT_EQ(run.sink->digests[0], test::direct_render(s.workload, 0).digest());
  EXPECT_GT(reader->metrics().read_calls, 0u);
}

// ---- io wait is attributed to the read-side instances ---------------------

TEST_F(IoDifferential, IoWaitShowsUpInNativeMetrics) {
  place_uniform({0, 1});
  io::ReaderOptions opts;
  opts.simulated_latency = std::chrono::microseconds(20000);
  // materialize() needs the placement first; pass opts for the reader.
  materialize("io_wait", 1, opts);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kRoundRobin;
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, viz::HsrAlgorithm::kZBuffer,
                viz::one_each({0, 1}), viz::one_each({2, 3}), 3);
  s.workload.reader = reader.get();
  const viz::NativeRenderRun run = viz::run_iso_app_native(s, cfg, 1);
  double io_wait = 0.0;
  for (const core::InstanceMetrics& m : run.metrics.instances) {
    io_wait += m.io_wait_time;
  }
  // The first chunk each copy demands cannot have completed its (20 ms
  // simulated) read by the time the copy asks for it.
  EXPECT_GT(io_wait, 0.0);
}

// ---------------------------------------------------------------------------
// Out-of-core external sort: the merge outcome must equal the checksums
// computed when the runs were materialized, under every writer policy.
// ---------------------------------------------------------------------------

TEST(IoOutOfCoreSort, OutcomeMatchesMaterializedRuns) {
  const fs::path root = fs::temp_directory_path() / "dc_io_diff_sort";
  fs::remove_all(root);

  sort::SortAppSpec spec;
  spec.workload.runs_per_reader = 4;
  spec.workload.records_per_run = 2048;
  spec.reader_hosts = {{0, 1}, {1, 1}};
  spec.sorter_hosts = {{2, 1}, {3, 1}};
  spec.merge_host = 2;

  const sort::MaterializedRuns runs = sort::write_sort_runs(
      root, spec.workload, spec.reader_hosts, /*disks_per_host=*/2);
  EXPECT_EQ(runs.total_runs, 8);
  EXPECT_EQ(runs.expected.count, 8u * 2048u);

  io::ChunkStore store(root);
  io::ChunkReader reader(store);
  spec.reader = &reader;

  for (core::Policy policy :
       {core::Policy::kRoundRobin, core::Policy::kWeightedRoundRobin,
        core::Policy::kDemandDriven}) {
    sim::Simulation simulation;
    sim::Topology topo(simulation);
    test::add_plain_nodes(topo, 4);
    core::RuntimeConfig cfg;
    cfg.policy = policy;
    const sort::SortRun run = sort::run_sort_app(topo, spec, cfg);
    const sort::SortOutcome& o = run.outcome;
    const sort::SortOutcome& e = runs.expected;
    EXPECT_TRUE(o.sorted) << core::to_string(policy);
    EXPECT_EQ(o.count, e.count) << core::to_string(policy);
    EXPECT_EQ(o.key_xor, e.key_xor) << core::to_string(policy);
    EXPECT_EQ(o.key_sum, e.key_sum) << core::to_string(policy);
    EXPECT_EQ(o.min_key, e.min_key) << core::to_string(policy);
    EXPECT_EQ(o.max_key, e.max_key) << core::to_string(policy);
  }
  fs::remove_all(root);
}

TEST(IoOutOfCoreSort, StaleStoreSizeMismatchThrows) {
  // A store materialized for different run dimensions must be rejected, not
  // silently mis-parsed: the payload is whole records, but fewer of them.
  const fs::path root = fs::temp_directory_path() / "dc_io_diff_sort_stale";
  fs::remove_all(root);
  sort::SortWorkload small;
  small.runs_per_reader = 1;
  small.records_per_run = 100;
  sort::write_sort_runs(root, small, {{0, 1}});
  io::ChunkStore store(root);
  io::ChunkReader reader(store);

  sort::SortAppSpec spec;
  spec.workload.runs_per_reader = 2;  // expects runs the store doesn't have
  spec.workload.records_per_run = 100;
  spec.reader_hosts = {{0, 1}};
  spec.sorter_hosts = {{1, 1}};
  spec.merge_host = 1;
  spec.reader = &reader;

  sim::Simulation simulation;
  sim::Topology topo(simulation);
  test::add_plain_nodes(topo, 2);
  core::RuntimeConfig cfg;
  EXPECT_THROW(sort::run_sort_app(topo, spec, cfg), std::exception);
  fs::remove_all(root);
}

}  // namespace
}  // namespace dc
