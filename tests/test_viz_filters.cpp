#include "viz/filters.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "exec/engine.hpp"
#include "test_util.hpp"
#include "viz/app.hpp"

namespace dc::viz {
namespace {

TEST(BlockFormat, HeaderSizesAdd) {
  BlockHeader h;
  h.nx = 4;
  h.ny = 4;
  h.nz = 2;
  EXPECT_EQ(h.sample_count(), 5u * 5u * 3u);
  EXPECT_EQ(h.packed_bytes(), sizeof(BlockHeader) + 75 * sizeof(float));
}

TEST(BlockFormat, RoundTripThroughBuffer) {
  core::Buffer buf(4096);
  BlockHeader h1{0, 0, 0, 1, 1, 1};
  std::vector<float> s1(8, 1.5f);
  BlockHeader h2{4, 5, 6, 2, 1, 1};
  std::vector<float> s2(12, 2.5f);
  ASSERT_TRUE(buf.push(h1));
  ASSERT_TRUE(buf.append(std::as_bytes(std::span<const float>(s1))));
  ASSERT_TRUE(buf.push(h2));
  ASSERT_TRUE(buf.append(std::as_bytes(std::span<const float>(s2))));

  int blocks = 0;
  for_each_block(buf, [&](const BlockHeader& h, const float* samples) {
    if (blocks == 0) {
      EXPECT_EQ(h.nx, 1);
      EXPECT_FLOAT_EQ(samples[0], 1.5f);
      EXPECT_FLOAT_EQ(samples[7], 1.5f);
    } else {
      EXPECT_EQ(h.x0, 4);
      EXPECT_EQ(h.sample_count(), 12u);
      EXPECT_FLOAT_EQ(samples[11], 2.5f);
    }
    ++blocks;
  });
  EXPECT_EQ(blocks, 2);
}

TEST(BlockFormat, TruncatedBufferThrows) {
  core::Buffer buf(4096);
  BlockHeader h{0, 0, 0, 4, 4, 4};  // claims 125 floats
  buf.push(h);
  float one = 1.f;
  buf.push(one);  // far too few
  EXPECT_THROW(
      for_each_block(buf, [](const BlockHeader&, const float*) {}),
      std::runtime_error);
}

TEST(RenderSinkTest, RecordsDigestsAndImages) {
  RenderSink sink;
  Image img(2, 2, sink.background);
  img.set(0, 0, 7);
  const auto digest = img.digest();
  sink.push(std::move(img));
  ASSERT_EQ(sink.digests.size(), 1u);
  EXPECT_EQ(sink.digests[0], digest);
  EXPECT_EQ(sink.active_pixel_counts[0], 1u);
  ASSERT_EQ(sink.images.size(), 1u);
}

TEST(RenderSinkTest, CanDropImages) {
  RenderSink sink;
  sink.keep_images = false;
  sink.push(Image(2, 2));
  EXPECT_TRUE(sink.images.empty());
  EXPECT_EQ(sink.digests.size(), 1u);
}

TEST(RenderSinkTest, ZBufferPushRecordsTheImageItWouldMake) {
  for (bool keep : {false, true}) {
    SCOPED_TRACE(keep ? "keep_images" : "digests only");
    RenderSink sink;
    sink.keep_images = keep;
    ZBuffer zb = sink.take_zbuffer(3, 2);
    zb.apply(1, 0.5f, 7);
    zb.apply(5, 2.f, sink.background);  // active, but background-colored
    const Image expected = zb.to_image(sink.background);
    sink.push(std::move(zb));
    ASSERT_EQ(sink.digests.size(), 1u);
    EXPECT_EQ(sink.digests[0], expected.digest());
    EXPECT_EQ(sink.active_pixel_counts[0], 1u);
    if (keep) {
      ASSERT_EQ(sink.images.size(), 1u);
      EXPECT_EQ(sink.images[0], expected);
    } else {
      EXPECT_TRUE(sink.images.empty());
    }
  }
}

TEST(RenderSinkTest, SpareZBufferComesBackEmptyAndOnlyAtItsSize) {
  RenderSink sink;
  sink.keep_images = false;
  ZBuffer zb = sink.take_zbuffer(4, 4);
  zb.apply(3, 1.f, 9);
  sink.push(std::move(zb));

  ZBuffer again = sink.take_zbuffer(4, 4);
  EXPECT_EQ(again.active_pixels(), 0u);
  EXPECT_EQ(again.rgba_at(3), 0u);
  sink.push(std::move(again));

  const ZBuffer other = sink.take_zbuffer(2, 8);  // same pixels, other shape
  EXPECT_EQ(other.width(), 2);
  EXPECT_EQ(other.height(), 8);
  EXPECT_EQ(other.active_pixels(), 0u);
}

TEST(RenderSinkTest, SpareImageComesBackAsBackground) {
  RenderSink sink;
  sink.keep_images = false;
  Image img = sink.take_image(3, 3);
  EXPECT_EQ(img, Image(3, 3, sink.background));
  img.set(1, 1, 5);
  const std::uint32_t* storage = img.pixels().data();
  sink.push(std::move(img));

  const Image again = sink.take_image(3, 3);
  EXPECT_EQ(again.pixels().data(), storage);
  EXPECT_EQ(again, Image(3, 3, sink.background));

  // A kept image is the caller's; it is never handed out again.
  RenderSink keep;
  Image kept = keep.take_image(2, 2);
  kept.set(0, 0, 5);
  keep.push(std::move(kept));
  EXPECT_EQ(keep.take_image(2, 2), Image(2, 2, keep.background));
  EXPECT_EQ(keep.images[0].at(0, 0), 5u);
}

struct SingleNodeRender : ::testing::Test {
  sim::Simulation simulation;
  sim::Topology topo{simulation};
  test::TestDataset ds = test::make_dataset();

  void place_data(const std::vector<int>& hosts) {
    std::vector<data::FileLocation> locs;
    for (int h : hosts) locs.push_back(data::FileLocation{h, 0});
    ds.store->place_uniform(locs);
  }
};

TEST_F(SingleNodeRender, FullPipelineMatchesDirectRender) {
  // R -> E -> Ra -> M on one host (standalone filters): the end-to-end image
  // must equal the runtime-free reference renderer bit for bit.
  test::add_plain_nodes(topo, 1);
  place_data({0});
  const VizWorkload w = test::make_workload(ds);
  const Image reference = test::direct_render(w);

  for (HsrAlgorithm hsr : {HsrAlgorithm::kZBuffer, HsrAlgorithm::kActivePixel}) {
    core::Graph g;
    const int r = g.add_source("R", [w] { return std::make_unique<ReadFilter>(w); });
    const int e = g.add_filter("E", [w] { return std::make_unique<ExtractFilter>(w); });
    const int ra = g.add_filter(
        "Ra", [w, hsr] { return std::make_unique<RasterFilter>(hsr, w); });
    auto sink = std::make_shared<RenderSink>();
    const int m = g.add_filter(
        "M", [w, sink] { return std::make_unique<MergeFilter>(w, sink); });
    g.connect(r, 0, e, 0);
    g.connect(e, 0, ra, 0);
    g.connect(ra, 0, m, 0);
    core::Placement p;
    p.place(r, 0).place(e, 0).place(ra, 0).place(m, 0);
    core::Runtime rt(topo, g, p, {});
    rt.run_uow();
    ASSERT_EQ(sink->images.size(), 1u) << to_string(hsr);
    EXPECT_EQ(sink->images[0].digest(), reference.digest()) << to_string(hsr);
    EXPECT_GT(sink->active_pixel_counts[0], 100u);
  }
}

TEST_F(SingleNodeRender, SmallBuffersDoNotChangeTheImage) {
  // Tiny stream buffers force chunk splitting, per-block MC, and many WPA
  // flushes; the image must not change.
  test::add_plain_nodes(topo, 1);
  place_data({0});
  const VizWorkload w = test::make_workload(ds);
  const Image reference = test::direct_render(w);

  IsoAppSpec spec;
  spec.config = PipelineConfig::kR_ERa_M;
  spec.hsr = HsrAlgorithm::kActivePixel;
  spec.workload = w;
  spec.data_hosts = {{0, 1}};
  spec.raster_hosts = {{0, 1}};
  spec.merge_host = 0;
  spec.block_buffer_bytes = 2048;  // forces emit_box to split chunks
  spec.tri_buffer_bytes = 1024;
  spec.pix_buffer_bytes = 512;
  const RenderRun run = run_iso_app(topo, spec, {}, 1);
  ASSERT_EQ(run.sink->digests.size(), 1u);
  EXPECT_EQ(run.sink->digests[0], reference.digest());
}

TEST_F(SingleNodeRender, TimestepsProduceDifferentImages) {
  test::add_plain_nodes(topo, 1);
  place_data({0});
  VizWorkload w = test::make_workload(ds);
  IsoAppSpec spec;
  spec.config = PipelineConfig::kRE_Ra_M;
  spec.workload = w;
  spec.data_hosts = {{0, 1}};
  spec.raster_hosts = {{0, 1}};
  spec.merge_host = 0;
  const RenderRun run = run_iso_app(topo, spec, {}, 3);
  ASSERT_EQ(run.sink->digests.size(), 3u);
  EXPECT_NE(run.sink->digests[0], run.sink->digests[1]);
  EXPECT_NE(run.sink->digests[1], run.sink->digests[2]);
  // And each matches its own direct render.
  for (int u = 0; u < 3; ++u) {
    EXPECT_EQ(run.sink->digests[static_cast<std::size_t>(u)],
              test::direct_render(w, u).digest());
  }
}

TEST_F(SingleNodeRender, ZBufferSendsDenseRaToM) {
  test::add_plain_nodes(topo, 1);
  place_data({0});
  const VizWorkload w = test::make_workload(ds);
  IsoAppSpec spec;
  spec.config = PipelineConfig::kRE_Ra_M;
  spec.workload = w;
  spec.data_hosts = {{0, 1}};
  spec.raster_hosts = {{0, 1}};
  spec.merge_host = 0;

  spec.hsr = HsrAlgorithm::kZBuffer;
  const RenderRun z = run_iso_app(topo, spec, {}, 1);
  spec.hsr = HsrAlgorithm::kActivePixel;
  const RenderRun ap = run_iso_app(topo, spec, {}, 1);

  // Table 1 shape: z-buffer moves the full dense image (w*h entries);
  // active pixel moves far less volume but at least as many buffers... of
  // the Ra->M stream (index 1).
  const auto& z_ram = z.metrics.streams.at(1);
  const auto& ap_ram = ap.metrics.streams.at(1);
  EXPECT_EQ(z_ram.payload_bytes,
            static_cast<std::uint64_t>(w.width) * static_cast<std::uint64_t>(w.height) *
                sizeof(PixEntry));
  // Sparse beats dense; at this tiny test image the surface covers much of
  // the screen, so the margin is modest (it is ~2.5x at experiment scale).
  EXPECT_LT(ap_ram.payload_bytes, z_ram.payload_bytes);
  EXPECT_EQ(z.sink->digests[0], ap.sink->digests[0]);
}

/// M that throws at the end of work of one UOW, after every buffer of that
/// UOW went through the real merge: the z-buffer it borrowed is dirty and
/// is never handed back.
class AbortingMerge final : public core::Filter {
 public:
  AbortingMerge(VizWorkload w, std::shared_ptr<RenderSink> sink, int abort_uow)
      : inner_(w, std::move(sink)), abort_uow_(abort_uow) {}
  void init(core::FilterContext& ctx) override { inner_.init(ctx); }
  void process_buffer(core::FilterContext& ctx, int port,
                      const core::Buffer& buf) override {
    inner_.process_buffer(ctx, port, buf);
  }
  void process_eow(core::FilterContext& ctx) override {
    if (ctx.uow_index() == abort_uow_) {
      throw std::runtime_error("merge aborted");
    }
    inner_.process_eow(ctx);
  }

 private:
  MergeFilter inner_;
  int abort_uow_;
};

/// R -> ERa -> M on host 0, M aborting at `abort_uow` (-1: never).
core::Graph aborting_graph(const VizWorkload& w, std::shared_ptr<RenderSink> sink,
                           int abort_uow) {
  core::Graph g;
  const int r = g.add_source("R", [w] { return std::make_unique<ReadFilter>(w); });
  const int era = g.add_filter("ERa", [w] {
    return std::make_unique<ExtractRasterFilter>(HsrAlgorithm::kActivePixel, w);
  });
  const int m = g.add_filter("M", [w, sink, abort_uow] {
    return std::make_unique<AbortingMerge>(w, sink, abort_uow);
  });
  g.connect(r, 0, era, 0);
  g.connect(era, 0, m, 0);
  return g;
}

core::Placement on_host0(const core::Graph& g) {
  core::Placement p;
  for (int f = 0; f < g.num_filters(); ++f) p.place(f, 0);
  return p;
}

/// Every frame the sink recorded equals the direct render of `timesteps`,
/// in order; kept images match pixel for pixel.
void expect_frames(const RenderSink& sink, const VizWorkload& w,
                   const std::vector<int>& timesteps) {
  ASSERT_EQ(sink.digests.size(), timesteps.size());
  ASSERT_EQ(sink.images.size(), sink.keep_images ? timesteps.size() : 0u);
  for (std::size_t i = 0; i < timesteps.size(); ++i) {
    const Image ref = test::direct_render(w, timesteps[i], sink.background);
    EXPECT_EQ(sink.digests[i], ref.digest()) << "timestep " << timesteps[i];
    EXPECT_EQ(sink.active_pixel_counts[i], ref.active_pixels(sink.background));
    if (sink.keep_images) {
      EXPECT_EQ(sink.images[i].diff_count(ref), 0u) << "timestep " << timesteps[i];
    }
  }
}

// An aborted UOW keeps the z-buffer it took from the sink, so the next UOW
// builds a clean one: a reused dirty buffer would fold the aborted
// timestep's surface into the next frame. Aborting at UOW 0 covers the
// first frame; aborting at UOW 1 covers a spare that was taken, then lost.
TEST_F(SingleNodeRender, NativeUowAfterAnAbortedMergeMatchesDirectRender) {
  place_data({0});
  const VizWorkload w = test::make_workload(ds);
  for (bool keep : {false, true}) {
    for (int abort_uow : {0, 1}) {
      SCOPED_TRACE(testing::Message() << (keep ? "keep_images" : "digests only")
                                      << ", abort at UOW " << abort_uow);
      auto sink = std::make_shared<RenderSink>();
      sink->keep_images = keep;
      const core::Graph g = aborting_graph(w, sink, abort_uow);
      const core::Placement p = on_host0(g);
      exec::Engine eng(g, p, {});
      std::vector<int> rendered;
      for (int u = 0; u < 3; ++u) {
        if (u == abort_uow) {
          EXPECT_THROW(eng.run_uow(), std::runtime_error);
        } else {
          eng.run_uow();
          rendered.push_back(u);
        }
      }
      expect_frames(*sink, w, rendered);
    }
  }
}

// The simulator cannot run on after a filter throws, so the UOW after the
// abort runs on a fresh Runtime that shares the sink and renders the next
// timestep.
TEST_F(SingleNodeRender, SimulatedUowAfterAnAbortedMergeMatchesDirectRender) {
  place_data({0});
  const VizWorkload w = test::make_workload(ds);
  for (bool keep : {false, true}) {
    for (int abort_uow : {0, 1}) {
      SCOPED_TRACE(testing::Message() << (keep ? "keep_images" : "digests only")
                                      << ", abort at UOW " << abort_uow);
      auto sink = std::make_shared<RenderSink>();
      sink->keep_images = keep;
      std::vector<int> rendered;
      {
        sim::Simulation sim_a;
        sim::Topology topo_a{sim_a};
        test::add_plain_nodes(topo_a, 1);
        const core::Graph g = aborting_graph(w, sink, abort_uow);
        const core::Placement p = on_host0(g);
        core::Runtime rt(topo_a, g, p, {});
        for (int u = 0; u < abort_uow; ++u) {
          rt.run_uow();
          rendered.push_back(u);
        }
        EXPECT_THROW(rt.run_uow(), std::runtime_error);
      }
      VizWorkload next = w;
      next.base_timestep = abort_uow + 1;
      sim::Simulation sim_b;
      sim::Topology topo_b{sim_b};
      test::add_plain_nodes(topo_b, 1);
      const core::Graph g = aborting_graph(next, sink, -1);
      const core::Placement p = on_host0(g);
      core::Runtime rt(topo_b, g, p, {});
      rt.run_uow();
      rendered.push_back(abort_uow + 1);
      expect_frames(*sink, w, rendered);
    }
  }
}

}  // namespace
}  // namespace dc::viz
