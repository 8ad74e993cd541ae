#include "viz/active_pixel.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.hpp"
#include "viz/raster.hpp"

namespace dc::viz {
namespace {

ScreenTriangle tri(float x0, float y0, float d0, float x1, float y1, float d1,
                   float x2, float y2, float d2) {
  ScreenTriangle t;
  t.v0 = {x0, y0, d0};
  t.v1 = {x1, y1, d1};
  t.v2 = {x2, y2, d2};
  return t;
}

TEST(ActivePixel, RejectsBadArguments) {
  EXPECT_THROW(ActivePixelRaster(0, 4, 8), std::invalid_argument);
  EXPECT_THROW(ActivePixelRaster(4, 4, 0), std::invalid_argument);
}

TEST(ActivePixel, FlushOnlyWhenNonEmpty) {
  ActivePixelRaster ap(16, 16, 8);
  int flushes = 0;
  ap.flush([&](const std::vector<PixEntry>&) { ++flushes; });
  EXPECT_EQ(flushes, 0);
}

TEST(ActivePixel, EmitsSparseEntriesOnly) {
  ActivePixelRaster ap(64, 64, 10000);
  std::vector<PixEntry> got;
  const auto sink = [&](const std::vector<PixEntry>& e) {
    got.insert(got.end(), e.begin(), e.end());
  };
  ap.add(tri(5, 5, 1, 15, 5, 1, 5, 15, 1), 42, sink);
  ap.flush(sink);
  EXPECT_GT(got.size(), 10u);
  EXPECT_LT(got.size(), 200u);  // only covered pixels, not 64*64
  for (const auto& e : got) EXPECT_EQ(e.rgba, 42u);
}

TEST(ActivePixel, CapacityTriggersFlush) {
  ActivePixelRaster ap(64, 64, 16);
  int flushes = 0;
  std::size_t total = 0;
  const auto sink = [&](const std::vector<PixEntry>& e) {
    ++flushes;
    total += e.size();
    EXPECT_LE(e.size(), 16u);
  };
  ap.add(tri(0, 0, 1, 50, 0, 1, 0, 50, 1), 1, sink);
  ap.flush(sink);
  EXPECT_GT(flushes, 10);
  EXPECT_EQ(total, ap.entries_emitted());
}

TEST(ActivePixel, DedupWithinScanlineKeepsWinner) {
  // The MSA indexes the WPA "for the scanline being processed": two
  // triangles covering the same single scanline collide per column, so the
  // second updates the in-flight entries in place instead of appending.
  ActivePixelRaster ap(64, 64, 10000);
  std::vector<PixEntry> got;
  const auto sink = [&](const std::vector<PixEntry>& e) {
    got.insert(got.end(), e.begin(), e.end());
  };
  ap.add(tri(5, 5.2f, 9, 15, 5.2f, 9, 10, 5.8f, 9), 100, sink);
  const std::uint64_t after_first = ap.wpa_size();
  ASSERT_GT(after_first, 0u);
  ap.add(tri(5, 5.2f, 2, 15, 5.2f, 2, 10, 5.8f, 2), 200, sink);
  EXPECT_EQ(ap.wpa_size(), after_first);  // same pixels, deduped in place
  EXPECT_GT(ap.in_buffer_hits(), 0u);
  ap.flush(sink);
  for (const auto& e : got) {
    EXPECT_FLOAT_EQ(e.depth, 2.f);
    EXPECT_EQ(e.rgba, 200u);
  }
}

TEST(ActivePixel, CrossScanlineCollisionsDeferToMerge) {
  // Columns last touched on a different scanline are appended, not deduped
  // (paper semantics) — the merge filter resolves them downstream.
  ActivePixelRaster ap(64, 64, 10000);
  ZBuffer merged(64, 64);
  const auto sink = [&](const std::vector<PixEntry>& e) {
    for (const auto& p : e) merged.apply(p);
  };
  ap.add(tri(5, 5, 9, 15, 5, 9, 5, 15, 9), 100, sink);
  ap.add(tri(5, 5, 2, 15, 5, 2, 5, 15, 2), 200, sink);
  ap.flush(sink);
  // Whatever was appended vs deduped, the merged result keeps the winner.
  for (std::uint32_t p = 0; p < 64 * 64; ++p) {
    if (merged.active(p)) {
      EXPECT_FLOAT_EQ(merged.depth_at(p), 2.f);
      EXPECT_EQ(merged.rgba_at(p), 200u);
    }
  }
}

TEST(ActivePixel, DedupResetsAcrossFlushes) {
  ActivePixelRaster ap(64, 64, 10000);
  std::size_t total = 0;
  const auto sink = [&](const std::vector<PixEntry>& e) { total += e.size(); };
  ap.add(tri(5, 5, 9, 15, 5, 9, 5, 15, 9), 1, sink);
  ap.flush(sink);
  const std::size_t first = total;
  // Same triangle again after a flush: duplicates are re-emitted (the merge
  // filter resolves them), never silently dropped.
  ap.add(tri(5, 5, 3, 15, 5, 3, 5, 15, 3), 2, sink);
  ap.flush(sink);
  EXPECT_EQ(total, 2 * first);
}

/// Equivalence: merging the AP output into a z-buffer equals rasterizing the
/// same triangles directly into a z-buffer — for any WPA capacity (i.e. any
/// stream buffer size).
class ApEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ApEquivalence, MergedOutputMatchesDenseZBuffer) {
  const std::size_t capacity = GetParam();
  const int w = 48, h = 48;
  sim::Rng rng(7);
  std::vector<ScreenTriangle> tris;
  std::vector<std::uint32_t> colors;
  for (int i = 0; i < 40; ++i) {
    tris.push_back(tri(static_cast<float>(rng.uniform(0, w)),
                       static_cast<float>(rng.uniform(0, h)),
                       static_cast<float>(rng.uniform(1, 10)),
                       static_cast<float>(rng.uniform(0, w)),
                       static_cast<float>(rng.uniform(0, h)),
                       static_cast<float>(rng.uniform(1, 10)),
                       static_cast<float>(rng.uniform(0, w)),
                       static_cast<float>(rng.uniform(0, h)),
                       static_cast<float>(rng.uniform(1, 10))));
    colors.push_back(static_cast<std::uint32_t>(rng.below(1u << 24)));
  }

  ZBuffer dense(w, h);
  for (std::size_t i = 0; i < tris.size(); ++i) {
    rasterize(tris[i], w, h, [&](int x, int y, float d) {
      dense.apply(static_cast<std::uint32_t>(y * w + x), d, colors[i]);
    });
  }

  ZBuffer merged(w, h);
  ActivePixelRaster ap(w, h, capacity);
  const auto sink = [&](const std::vector<PixEntry>& e) {
    for (const auto& p : e) merged.apply(p);
  };
  for (std::size_t i = 0; i < tris.size(); ++i) ap.add(tris[i], colors[i], sink);
  ap.flush(sink);

  for (std::uint32_t p = 0; p < static_cast<std::uint32_t>(w * h); ++p) {
    ASSERT_EQ(merged.depth_at(p), dense.depth_at(p)) << "pixel " << p;
    ASSERT_EQ(merged.rgba_at(p), dense.rgba_at(p)) << "pixel " << p;
  }
  EXPECT_EQ(ap.fragments_generated(), dense.active_pixels() > 0
                                          ? ap.fragments_generated()
                                          : 0u);  // counters exposed
}

INSTANTIATE_TEST_SUITE_P(Capacities, ApEquivalence,
                         ::testing::Values(4, 16, 128, 1 << 20));

TEST(ActivePixel, AddReturnsTheFragmentsItGenerated) {
  ActivePixelRaster ap(64, 64, 8);  // small: add flushes mid-triangle
  int flushes = 0;
  const ActivePixelRaster::FlushFn sink = [&](const std::vector<PixEntry>&) {
    ++flushes;
  };
  const std::vector<ScreenTriangle> tris = {tri(5, 5, 1, 25, 5, 1, 5, 25, 1),
                                            tri(30.6f, 30.6f, 1, 31.4f, 30.6f, 1,
                                                31.f, 31.4f, 1),
                                            tri(-10, -10, 1, 60, 5, 1, 5, 40, 1)};
  for (const ScreenTriangle& t : tris) {
    const std::uint64_t before = ap.fragments_generated();
    const std::size_t n = ap.add(t, 7, sink);
    EXPECT_EQ(n, ap.fragments_generated() - before);
    EXPECT_EQ(n, rasterize(t, 64, 64, [](int, int, float) {}));
  }
  EXPECT_GT(flushes, 0);
}

TEST(ActivePixel, EntryIndicesWithinImage) {
  const int w = 32, h = 16;
  ActivePixelRaster ap(w, h, 1 << 16);
  const auto sink = [&](const std::vector<PixEntry>& e) {
    for (const auto& p : e) EXPECT_LT(p.index, static_cast<std::uint32_t>(w * h));
  };
  ap.add(tri(-10, -10, 1, 60, 5, 1, 5, 40, 1), 9, sink);
  ap.flush(sink);
}

}  // namespace
}  // namespace dc::viz
