#include "viz/raster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "data/synth.hpp"
#include "data/volume.hpp"
#include "sim/rng.hpp"
#include "viz/marching_cubes.hpp"

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

TEST(Rasterize, CoversApproximatelyTheArea) {
  const auto t = tri(10, 10, 1, 60, 10, 1, 10, 60, 1);
  std::size_t n = 0;
  rasterize(t, 100, 100, [&](int, int, float) { ++n; });
  EXPECT_NEAR(static_cast<double>(n), 0.5 * 50 * 50, 60.0);
}

TEST(Rasterize, WindingDoesNotMatter) {
  const auto a = tri(10, 10, 1, 60, 10, 1, 10, 60, 1);
  const auto b = tri(10, 10, 1, 10, 60, 1, 60, 10, 1);  // reversed
  std::vector<std::tuple<int, int>> pa, pb;
  rasterize(a, 100, 100, [&](int x, int y, float) { pa.emplace_back(x, y); });
  rasterize(b, 100, 100, [&](int x, int y, float) { pb.emplace_back(x, y); });
  EXPECT_EQ(pa, pb);
}

TEST(Rasterize, DegenerateTriangleEmitsNothing) {
  const auto t = tri(10, 10, 1, 20, 20, 1, 30, 30, 1);  // collinear
  std::size_t n = 0;
  rasterize(t, 100, 100, [&](int, int, float) { ++n; });
  EXPECT_EQ(n, 0u);
}

TEST(Rasterize, ClipsToViewport) {
  const auto t = tri(-50, -50, 1, 50, -50, 1, -50, 50, 1);
  rasterize(t, 32, 32, [&](int x, int y, float) {
    ASSERT_GE(x, 0);
    ASSERT_LT(x, 32);
    ASSERT_GE(y, 0);
    ASSERT_LT(y, 32);
  });
}

TEST(Rasterize, ConstantDepthInterpolatesExactly) {
  const auto t = tri(5, 5, 7.5f, 25, 5, 7.5f, 5, 25, 7.5f);
  rasterize(t, 64, 64,
            [&](int, int, float d) { ASSERT_NEAR(d, 7.5f, 1e-4f); });
}

TEST(Rasterize, DepthGradientFollowsVertices) {
  // Depth 0 at left edge, 10 at right vertex: pixels near the right have
  // larger depth.
  const auto t = tri(0, 0, 0, 40, 0, 10, 0, 40, 0);
  float left = -1.f, right = -1.f;
  rasterize(t, 64, 64, [&](int x, int y, float d) {
    if (x <= 1 && y <= 1) left = d;
    if (x >= 30) right = std::max(right, d);
  });
  ASSERT_GE(left, 0.f);
  EXPECT_LT(left, 1.f);
  EXPECT_GT(right, 6.f);
}

TEST(Rasterize, DeterministicOrder) {
  const auto t = tri(3, 3, 1, 20, 5, 2, 8, 22, 3);
  std::vector<std::tuple<int, int, float>> a, b;
  rasterize(t, 64, 64, [&](int x, int y, float d) { a.emplace_back(x, y, d); });
  rasterize(t, 64, 64, [&](int x, int y, float d) { b.emplace_back(x, y, d); });
  EXPECT_EQ(a, b);
  // y-major order.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(std::get<1>(a[i]), std::get<1>(a[i - 1]));
  }
}

TEST(Rasterize, ReturnsEmittedCount) {
  const auto t = tri(0, 0, 1, 10, 0, 1, 0, 10, 1);
  std::size_t n = 0;
  const std::size_t returned = rasterize(t, 64, 64, [&](int, int, float) { ++n; });
  EXPECT_EQ(returned, n);
  EXPECT_GT(n, 0u);
}

TEST(ShadeFlat, DeterministicAndInRange) {
  const Vec3 n{0.5f, 0.5f, 0.7071f};
  const Vec3 view{0, 0, 1};
  const std::uint32_t c1 = shade_flat(n, view, 0.4f);
  const std::uint32_t c2 = shade_flat(n, view, 0.4f);
  EXPECT_EQ(c1, c2);
}

TEST(ShadeFlat, FacingSurfaceIsBrighter) {
  const Vec3 view{0, 0, 1};
  const std::uint32_t facing = shade_flat({0, 0, -1}, view, 0.5f);
  const std::uint32_t grazing = shade_flat({1, 0, 0}, view, 0.5f);
  const int bright_facing = red(facing) + green(facing) + blue(facing);
  const int bright_grazing = red(grazing) + green(grazing) + blue(grazing);
  EXPECT_GT(bright_facing, bright_grazing);
}

TEST(ShadeFlat, ScalarControlsHue) {
  const Vec3 n{0, 0, -1};
  const Vec3 view{0, 0, 1};
  const std::uint32_t cold = shade_flat(n, view, 0.0f);
  const std::uint32_t hot = shade_flat(n, view, 1.0f);
  EXPECT_GT(blue(cold), red(cold));
  EXPECT_GT(red(hot), blue(hot));
}

TEST(Rasterize, NonFiniteVertexEmitsNothing) {
  // Camera::project's trivial reject lets a NaN vertex through.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const ScreenTriangle& t :
       {tri(nan, 5, 1, 30, 5, 1, 5, 30, 1), tri(5, 5, 1, 30, nan, 1, 5, 30, 1),
        tri(-inf, 5, 1, 30, 5, 1, 5, 30, 1), tri(5, 5, 1, 30, 5, 1, 5, inf, 1)}) {
    std::size_t n = 0;
    EXPECT_EQ(rasterize(t, 32, 32, [&](int, int, float) { ++n; }), 0u);
    EXPECT_EQ(n, 0u);
    EXPECT_TRUE(pixel_bounds(t, 32, 32).empty());
  }
}

TEST(Rasterize, HugeCoordinatesAreClampedBeforeTheCast) {
  // Casting a bound beyond the int range is undefined; the sanitized build
  // checks float-cast-overflow.
  const auto cover = tri(-1e12f, -1e12f, 1, 1e12f, -1e12f, 1, 0, 1e12f, 1);
  std::vector<std::tuple<int, int>> seen;
  rasterize(cover, 16, 8, [&](int x, int y, float) { seen.emplace_back(x, y); });
  std::vector<std::tuple<int, int>> every;
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 16; ++x) every.emplace_back(x, y);
  }
  EXPECT_EQ(seen, every);

  for (const ScreenTriangle& t :
       {tri(1e12f, 5, 1, 1e12f + 1e6f, 5, 1, 1e12f, 40, 1),
        tri(5, -1e12f, 1, 40, -1e12f, 1, 5, -1e12f + 1e6f, 1)}) {
    EXPECT_TRUE(pixel_bounds(t, 16, 8).empty());
    EXPECT_EQ(rasterize(t, 16, 8, [](int, int, float) {}), 0u);
  }
}

TEST(PixelBounds, HoldExactlyThePixelCentersInsideTheVertexBounds) {
  // Centers at 2.5 and 5.5 lie on the bounds; 1.5 and 6.5 do not.
  const auto t = tri(2.5f, 3.f, 1, 5.5f, 3.f, 1, 4.f, 7.49f, 1);
  const PixelBounds b = pixel_bounds(t, 64, 64);
  EXPECT_EQ(b.min_x, 2);
  EXPECT_EQ(b.max_x, 5);
  EXPECT_EQ(b.min_y, 3);
  EXPECT_EQ(b.max_y, 6);
  // Between two centers: nothing to evaluate.
  EXPECT_TRUE(pixel_bounds(tri(2.6f, 2.6f, 1, 3.4f, 2.6f, 1, 3.f, 3.4f, 1), 64, 64)
                  .empty());
}

// ---------------------------------------------------------------------------
// Frozen oracle: rasterize as it was before it was bounded by pixel centers,
// evaluating every pixel of [floor(min), ceil(max)] with the full edge
// functions. The production kernel must emit the same fragment sequence.
// Only fed vertices whose bounds fit an int.
// ---------------------------------------------------------------------------

template <typename Emit>
std::size_t oracle_rasterize(const ScreenTriangle& t, int width, int height,
                             Emit&& emit) {
  const double x0 = t.v0.x, y0 = t.v0.y;
  const double x1 = t.v1.x, y1 = t.v1.y;
  const double x2 = t.v2.x, y2 = t.v2.y;

  // Signed doubled area; sign gives the winding.
  const double area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0);
  if (area == 0.0) return 0;
  const double sign = area > 0.0 ? 1.0 : -1.0;
  const double inv_area = 1.0 / area;

  const int min_x = std::max(0, static_cast<int>(std::floor(std::min({x0, x1, x2}))));
  const int max_x = std::min(width - 1,
                             static_cast<int>(std::ceil(std::max({x0, x1, x2}))));
  const int min_y = std::max(0, static_cast<int>(std::floor(std::min({y0, y1, y2}))));
  const int max_y = std::min(height - 1,
                             static_cast<int>(std::ceil(std::max({y0, y1, y2}))));

  std::size_t emitted = 0;
  for (int y = min_y; y <= max_y; ++y) {
    const double py = y + 0.5;
    for (int x = min_x; x <= max_x; ++x) {
      const double px = x + 0.5;
      // Edge functions (doubled barycentric weights).
      const double w0 = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1);
      const double w1 = (x0 - x2) * (py - y2) - (y0 - y2) * (px - x2);
      const double w2 = (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0);
      if (w0 * sign < 0.0 || w1 * sign < 0.0 || w2 * sign < 0.0) continue;
      const double depth = (w0 * t.v0.depth + w1 * t.v1.depth + w2 * t.v2.depth) *
                           inv_area;
      emit(x, y, static_cast<float>(depth));
      ++emitted;
    }
  }
  return emitted;
}

using Fragment = std::tuple<int, int, std::uint32_t>;  // x, y, depth bits

/// Rasterizes every triangle with both kernels and reports the first one
/// whose fragment sequence or returned count differs. Returns the number of
/// fragments, so callers can check the set was not trivially empty.
std::size_t expect_matches_oracle(const std::vector<ScreenTriangle>& tris,
                                  int width, int height) {
  std::vector<Fragment> got, want;
  std::size_t total = 0;
  for (std::size_t i = 0; i < tris.size(); ++i) {
    got.clear();
    want.clear();
    const std::size_t n_got = rasterize(tris[i], width, height, [&](int x, int y, float d) {
      got.emplace_back(x, y, std::bit_cast<std::uint32_t>(d));
    });
    const std::size_t n_want =
        oracle_rasterize(tris[i], width, height, [&](int x, int y, float d) {
          want.emplace_back(x, y, std::bit_cast<std::uint32_t>(d));
        });
    const ScreenTriangle& t = tris[i];
    if (n_got != n_want || got != want) {
      ADD_FAILURE() << "triangle " << i << " of " << tris.size() << " on " << width
                    << "x" << height << ": (" << t.v0.x << ", " << t.v0.y << ") ("
                    << t.v1.x << ", " << t.v1.y << ") (" << t.v2.x << ", " << t.v2.y
                    << ") emits " << n_got << " fragments, the oracle " << n_want;
      return total;
    }
    total += n_got;
  }
  return total;
}

/// The triangles marching cubes extracts from one timestep of a plume field
/// on a grid^3 volume, at the field's lower-quartile value — a surface of
/// the e2e benchmark's kind, where most triangles are under a pixel.
std::vector<Triangle> plume_triangles(int grid, std::uint64_t seed) {
  const data::PlumeField field(seed);
  const data::ChunkLayout whole(data::GridDims{grid, grid, grid}, 1, 1, 1);
  std::vector<float> samples;
  field.fill_chunk(whole, 0, 0.f, samples);
  std::vector<float> sorted = samples;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 4, sorted.end());
  const float iso = sorted[sorted.size() / 4];
  std::vector<Triangle> tris;
  marching_cubes(samples.data(), grid, grid, grid, 0.f, 0.f, 0.f, iso, tris);
  return tris;
}

TEST(RasterizeOracle, PlumeTrianglesMatchAtEveryResolutionAndView) {
  // A 48^3 grid at 256^2 projects triangles of the size a 96^3 grid does at
  // 512^2 (the render_warm frame); 1024^2 covers render_spill's 96^3 frame
  // at twice the scale.
  // Each seed takes two of the four views, to stay fast under sanitizers.
  constexpr int kGrid = 48;
  for (const auto& [seed, first_view] : {std::pair{2002u, 0}, std::pair{7u, 2}}) {
    const std::vector<Triangle> world = plume_triangles(kGrid, seed);
    ASSERT_GT(world.size(), 5000u);
    for (const int res : {256, 512, 1024}) {
      for (int view = first_view; view < first_view + 2; ++view) {
        const Camera cam = Camera::for_volume(kGrid, kGrid, kGrid, res, res, view);
        std::vector<ScreenTriangle> screen;
        for (const Triangle& t : world) {
          ScreenTriangle st;
          if (cam.project(t, st)) screen.push_back(st);
        }
        SCOPED_TRACE(testing::Message() << "seed " << seed << " view " << view);
        EXPECT_GT(expect_matches_oracle(screen, res, res), screen.size() / 2);
      }
    }
  }
}

/// A coordinate near the pixel grid: a pixel center k + 0.5, a pixel corner
/// k, or one of them moved by 1-4 ulp either way.
float near_grid(sim::Rng& rng, int lo, int hi) {
  float v = static_cast<float>(rng.range(lo, hi)) + (rng.below(2) == 0 ? 0.5f : 0.f);
  const int ulps = static_cast<int>(rng.range(-4, 4));
  for (int i = 0; i < std::abs(ulps); ++i) {
    v = std::nextafter(v, ulps > 0 ? std::numeric_limits<float>::infinity()
                                   : -std::numeric_limits<float>::infinity());
  }
  return v;
}

TEST(RasterizeOracle, AdversarialTrianglesMatch) {
  constexpr int kW = 37, kH = 29;
  sim::Rng rng(18);
  auto depth = [&] { return static_cast<float>(rng.uniform(0.5, 100.0)); };
  auto any = [&](double lo, double hi) { return static_cast<float>(rng.uniform(lo, hi)); };
  std::vector<ScreenTriangle> tris;
  for (int i = 0; i < 6000; ++i) {
    ScreenTriangle t;
    switch (i % 6) {
      case 0:  // every vertex on or within 4 ulp of a pixel center or corner
        t.v0 = {near_grid(rng, -2, kW + 1), near_grid(rng, -2, kH + 1), depth()};
        t.v1 = {near_grid(rng, -2, kW + 1), near_grid(rng, -2, kH + 1), depth()};
        t.v2 = {near_grid(rng, -2, kW + 1), near_grid(rng, -2, kH + 1), depth()};
        break;
      case 1: {  // sub-pixel triangles around a pixel center, as most plume ones are
        const float cx = near_grid(rng, 0, kW - 1), cy = near_grid(rng, 0, kH - 1);
        t.v0 = {cx + any(-0.6, 0.6), cy + any(-0.6, 0.6), depth()};
        t.v1 = {cx + any(-0.6, 0.6), cy + any(-0.6, 0.6), depth()};
        t.v2 = {cx + any(-0.6, 0.6), cy + any(-0.6, 0.6), depth()};
        break;
      }
      case 2: {  // slivers: three points within a few ulp of one line
        const float px = near_grid(rng, 0, kW), py = near_grid(rng, 0, kH);
        const float dx = any(-8, 8), dy = any(-8, 8);
        // Half of them lie on a line through a pixel center outside their
        // bounds, where only rounding could decide the edge tests.
        const bool beyond = rng.below(2) == 0;
        const float a = beyond ? any(0.1, 1) : any(-1, 1);
        const float b = a + any(0.1, 2), c = any(a, b);
        t.v0 = {px + a * dx, py + a * dy, depth()};
        t.v1 = {px + b * dx, py + b * dy, depth()};
        t.v2 = {px + c * dx, py + c * dy, depth()};
        const auto nudges = static_cast<int>(rng.range(0, 4));
        for (int k = 0; k < nudges; ++k) {
          t.v2.x = std::nextafter(t.v2.x, rng.below(2) == 0 ? 1e9f : -1e9f);
        }
        break;
      }
      case 3: {  // degenerate: a repeated vertex or three points on a line
        t.v0 = {near_grid(rng, 0, kW), near_grid(rng, 0, kH), depth()};
        t.v1 = {near_grid(rng, 0, kW), near_grid(rng, 0, kH), depth()};
        if (rng.below(2) == 0) {
          t.v2 = {t.v0.x, t.v0.y, depth()};
        } else {
          t.v2 = {2.f * t.v1.x - t.v0.x, 2.f * t.v1.y - t.v0.y, depth()};
        }
        break;
      }
      case 4: {  // off the viewport on one side, some touching its border
        const float dx = rng.below(2) == 0 ? -kW - 2.f : kW + 0.5f;
        t.v0 = {dx + any(0, kW), any(-5, kH + 5), depth()};
        t.v1 = {dx + any(0, kW), any(-5, kH + 5), depth()};
        t.v2 = {dx + any(0, kW), any(-5, kH + 5), depth()};
        if (rng.below(2) == 0) std::swap(t.v0.x, t.v0.y);
        break;
      }
      default:  // larger than the viewport
        t.v0 = {any(-10 * kW, 10 * kW), any(-10 * kH, 10 * kH), depth()};
        t.v1 = {any(-10 * kW, 10 * kW), any(-10 * kH, 10 * kH), depth()};
        t.v2 = {any(-10 * kW, 10 * kW), any(-10 * kH, 10 * kH), depth()};
        break;
    }
    tris.push_back(t);
  }
  EXPECT_GT(expect_matches_oracle(tris, kW, kH), tris.size());
}

}  // namespace
}  // namespace dc::viz
