#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/runtime.hpp"
#include "exec/engine.hpp"
#include "test_util.hpp"
#include "viz/app.hpp"

// Differential sim-vs-native harness: the discrete-event simulator
// (core::Runtime) and the native threaded engine (exec::Engine) instantiate
// the same graph + placement with the same seed, so their merged results must
// be bit-identical — the merge rule is order-independent and the per-copy RNG
// streams are seeded the same way. Per-stream buffer ledgers are additionally
// compared wherever the counts are deterministic (single-copy streams, where
// buffer packing cannot depend on scheduling).

namespace dc {
namespace {

struct Differential : ::testing::Test {
  sim::Simulation simulation;
  sim::Topology topo{simulation};
  test::TestDataset ds = test::make_dataset(24, 3, 16);
  std::vector<int> hosts;

  /// `n` hosts; the dataset's chunks live only on `data_hosts` (they must
  /// cover every host that runs a read-side filter, or the distributed
  /// render sees a subset of the data).
  void build(int n, const std::vector<int>& data_hosts) {
    hosts = test::add_plain_nodes(topo, n);
    std::vector<data::FileLocation> locs;
    for (int h : data_hosts) locs.push_back(data::FileLocation{h, 0});
    ds.store->place_uniform(locs);
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

  /// Runs both engines and asserts bit-identical images, also checking the
  /// simulator against the non-distributed reference renderer.
  void expect_identical_images(const viz::IsoAppSpec& s,
                               const core::RuntimeConfig& cfg, int uows = 1) {
    const viz::RenderRun sim_run = viz::run_iso_app(topo, s, cfg, uows);
    const viz::NativeRenderRun nat_run = viz::run_iso_app_native(s, cfg, uows);
    ASSERT_EQ(sim_run.sink->images.size(), static_cast<std::size_t>(uows));
    ASSERT_EQ(nat_run.sink->images.size(), static_cast<std::size_t>(uows));
    for (int u = 0; u < uows; ++u) {
      EXPECT_EQ(sim_run.sink->images[static_cast<std::size_t>(u)],
                nat_run.sink->images[static_cast<std::size_t>(u)])
          << "uow " << u;
      EXPECT_EQ(nat_run.sink->digests[static_cast<std::size_t>(u)],
                test::direct_render(s.workload, u).digest())
          << "uow " << u;
    }
    EXPECT_EQ(sim_run.sink->digests, nat_run.sink->digests);
  }

  /// For graphs where every stream's producer and consumer have one copy,
  /// the full per-stream ledger is deterministic: compare it entry by entry.
  static void expect_identical_streams(const core::Metrics& sim_m,
                                       const core::Metrics& nat_m) {
    ASSERT_EQ(sim_m.streams.size(), nat_m.streams.size());
    for (std::size_t i = 0; i < sim_m.streams.size(); ++i) {
      EXPECT_EQ(sim_m.streams[i].name, nat_m.streams[i].name);
      EXPECT_EQ(sim_m.streams[i].buffers, nat_m.streams[i].buffers)
          << sim_m.streams[i].name;
      EXPECT_EQ(sim_m.streams[i].payload_bytes, nat_m.streams[i].payload_bytes)
          << sim_m.streams[i].name;
      EXPECT_EQ(sim_m.streams[i].message_bytes, nat_m.streams[i].message_bytes)
          << sim_m.streams[i].name;
    }
  }
};

// ---- combo 1: RE-Ra-M, z-buffer, round-robin, replicated raster -----------

TEST_F(Differential, RoundRobinZBufferReplicatedRaster) {
  build(4, {0, 1});
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kRoundRobin;
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, viz::HsrAlgorithm::kZBuffer,
                viz::one_each({0, 1}), {{2, 2}, {3, 2}}, 3);
  expect_identical_images(s, cfg);
}

// ---- combo 2: RE-Ra-M, active pixel, demand-driven, 4-way ------------------

TEST_F(Differential, DemandDrivenActivePixelFourWay) {
  build(4, {0, 1, 2, 3});
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, viz::HsrAlgorithm::kActivePixel,
                viz::one_each({0, 1, 2, 3}), viz::one_each({0, 1, 2, 3}), 3);
  expect_identical_images(s, cfg);
}

// ---- combo 3: R-ERa-M, weighted round robin, asymmetric copies ------------

TEST_F(Differential, WeightedRoundRobinAsymmetricCopies) {
  build(3, {0, 1});
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kWeightedRoundRobin;
  auto s = spec(viz::PipelineConfig::kR_ERa_M, viz::HsrAlgorithm::kActivePixel,
                viz::one_each({0, 1}), {{1, 1}, {2, 3}}, 2);
  expect_identical_images(s, cfg);
}

// ---- combo 4: fused RERa-M, demand-driven ---------------------------------

TEST_F(Differential, FusedPipelineDemandDriven) {
  build(3, {0, 1, 2});
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  auto s = spec(viz::PipelineConfig::kRERa_M, viz::HsrAlgorithm::kZBuffer,
                viz::one_each({0, 1, 2}), {}, 2);
  expect_identical_images(s, cfg);
}

// ---- combo 5: single-copy chain, round robin: full ledger must match ------

TEST_F(Differential, SingleCopyChainMatchesStreamLedger) {
  build(2, {0});
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kRoundRobin;
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, viz::HsrAlgorithm::kActivePixel,
                viz::one_each({0}), viz::one_each({1}), 1);

  const viz::RenderRun sim_run = viz::run_iso_app(topo, s, cfg, 1);
  const viz::NativeRenderRun nat_run = viz::run_iso_app_native(s, cfg, 1);
  EXPECT_EQ(sim_run.sink->digests, nat_run.sink->digests);
  expect_identical_streams(sim_run.metrics, nat_run.metrics);
}

// ---- combo 6: single-copy chain, DD window=1: ledger and ack counts -------

TEST_F(Differential, DemandDrivenWindowOneMatchesAckLedger) {
  build(2, {0});
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  cfg.window = 1;
  auto s = spec(viz::PipelineConfig::kR_ERa_M, viz::HsrAlgorithm::kZBuffer,
                viz::one_each({0}), viz::one_each({1}), 0);

  const viz::RenderRun sim_run = viz::run_iso_app(topo, s, cfg, 1);
  const viz::NativeRenderRun nat_run = viz::run_iso_app_native(s, cfg, 1);
  EXPECT_EQ(sim_run.sink->digests, nat_run.sink->digests);
  expect_identical_streams(sim_run.metrics, nat_run.metrics);
  // Every buffer is acknowledged exactly once under DD in both engines.
  EXPECT_EQ(sim_run.metrics.acks_total, nat_run.metrics.acks_total);
  EXPECT_EQ(sim_run.metrics.ack_bytes_total, nat_run.metrics.ack_bytes_total);
}

// ---- multi-UOW: both engines advance the RNG identically across UOWs ------

TEST_F(Differential, MultiUowTimeSeriesMatches) {
  build(4, {0, 1});
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, viz::HsrAlgorithm::kActivePixel,
                viz::one_each({0, 1}), viz::one_each({2, 3}), 3);
  s.workload.vary_view_per_uow = true;
  expect_identical_images(s, cfg, /*uows=*/3);
}

// ---------------------------------------------------------------------------
// RNG-stream parity on a synthetic sort pipeline: sources draw values from
// ctx.rng(), a middle stage transforms them, a single-copy sink sorts the
// union. The sorted run is routing-independent, so it is identical between
// engines iff the per-copy RNG streams are seeded identically.
// ---------------------------------------------------------------------------

class RandSource : public core::SourceFilter {
 public:
  RandSource(int steps, int per_step) : steps_(steps), per_step_(per_step) {}
  bool step(core::FilterContext& ctx) override {
    core::Buffer b = ctx.make_buffer(0);
    for (int i = 0; i < per_step_; ++i) b.push(ctx.rng().next_u64());
    ctx.write(0, b);
    return ++i_ < steps_;
  }

 private:
  int steps_, per_step_;
  int i_ = 0;
};

class MixFilter : public core::Filter {
 public:
  void process_buffer(core::FilterContext& ctx, int,
                      const core::Buffer& buf) override {
    core::Buffer out = ctx.make_buffer(0);
    for (std::uint64_t v : buf.records<std::uint64_t>()) {
      out.push(v * 0x2545F4914F6CDD1DULL + 0x9E3779B97F4A7C15ULL);
    }
    ctx.write(0, out);
  }
};

/// Single-copy sink; the mutex makes it safe under the native engine too
/// (a copy set with one copy still runs on its own thread).
class SortSink : public core::Filter {
 public:
  explicit SortSink(std::shared_ptr<std::vector<std::uint64_t>> out)
      : out_(std::move(out)) {}
  void process_buffer(core::FilterContext&, int,
                      const core::Buffer& buf) override {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::uint64_t v : buf.records<std::uint64_t>()) out_->push_back(v);
  }
  void process_eow(core::FilterContext&) override {
    std::lock_guard<std::mutex> lk(mu_);
    std::sort(out_->begin(), out_->end());
  }

 private:
  std::mutex mu_;
  std::shared_ptr<std::vector<std::uint64_t>> out_;
};

struct SortPipeline {
  core::Graph graph;
  core::Placement placement;
  std::shared_ptr<std::vector<std::uint64_t>> values =
      std::make_shared<std::vector<std::uint64_t>>();
};

SortPipeline make_sort_pipeline() {
  SortPipeline p;
  auto values = p.values;
  const int src = p.graph.add_source(
      "rand", [] { return std::make_unique<RandSource>(12, 16); });
  const int mix =
      p.graph.add_filter("mix", [] { return std::make_unique<MixFilter>(); });
  const int sink = p.graph.add_filter(
      "sink", [values] { return std::make_unique<SortSink>(values); });
  p.graph.connect(src, 0, mix, 0);
  p.graph.connect(mix, 0, sink, 0);
  p.placement.place(src, 0, 1).place(src, 1, 1);
  p.placement.place(mix, 0, 2).place(mix, 1, 1);
  p.placement.place(sink, 2, 1);
  return p;
}

TEST(ExecDifferentialRng, SortedRunsMatchAcrossEngines) {
  for (core::Policy pol : {core::Policy::kRoundRobin,
                           core::Policy::kWeightedRoundRobin,
                           core::Policy::kDemandDriven}) {
    core::RuntimeConfig cfg;
    cfg.policy = pol;
    cfg.rng_seed = 1234;

    SortPipeline sp = make_sort_pipeline();
    sim::Simulation simulation;
    sim::Topology topo(simulation);
    test::add_plain_nodes(topo, 3);
    core::Runtime rt(topo, sp.graph, sp.placement, cfg);
    rt.run_uow();
    rt.run_uow();  // the second UOW re-splits the RNG with advanced state
    const std::vector<std::uint64_t> sim_values = *sp.values;

    SortPipeline np = make_sort_pipeline();
    exec::Engine eng(np.graph, np.placement, cfg);
    eng.run_uow();
    eng.run_uow();
    EXPECT_EQ(sim_values, *np.values)
        << "policy " << static_cast<int>(pol);
    EXPECT_FALSE(np.values->empty());
  }
}

// ---------------------------------------------------------------------------
// Negative paths: both engines reject invalid configs up front.
// ---------------------------------------------------------------------------

TEST(ExecConfigValidation, NativeEngineRejectsBadConfig) {
  SortPipeline p = make_sort_pipeline();

  core::RuntimeConfig zero_window;
  zero_window.window = 0;
  EXPECT_THROW(exec::Engine(p.graph, p.placement, zero_window),
               std::invalid_argument);

  core::RuntimeConfig negative_window;
  negative_window.window = -3;
  EXPECT_THROW(exec::Engine(p.graph, p.placement, negative_window),
               std::invalid_argument);

  core::RuntimeConfig zero_buffer;
  zero_buffer.default_buffer_bytes = 0;
  EXPECT_THROW(exec::Engine(p.graph, p.placement, zero_buffer),
               std::invalid_argument);

  core::RuntimeConfig faulty;
  faulty.detection = core::FailureDetection::kMembership;
  EXPECT_THROW(exec::Engine(p.graph, p.placement, faulty),
               std::invalid_argument);
}

}  // namespace
}  // namespace dc
