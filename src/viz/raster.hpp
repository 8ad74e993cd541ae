#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "viz/camera.hpp"
#include "viz/image.hpp"

namespace dc::viz {

/// The pixels whose centers (x + 0.5, y + 0.5) lie inside a triangle's
/// vertex bounds, clipped to the viewport: the only pixels rasterize
/// evaluates. Empty when a vertex's screen position is not finite.
struct PixelBounds {
  int min_x = 0, max_x = -1;
  int min_y = 0, max_y = -1;
  [[nodiscard]] bool empty() const { return min_x > max_x || min_y > max_y; }
};

[[nodiscard]] inline PixelBounds pixel_bounds(const ScreenTriangle& t, int width,
                                              int height) {
  const double x0 = t.v0.x, y0 = t.v0.y;
  const double x1 = t.v1.x, y1 = t.v1.y;
  const double x2 = t.v2.x, y2 = t.v2.y;
  if (!std::isfinite(x0) || !std::isfinite(y0) || !std::isfinite(x1) ||
      !std::isfinite(y1) || !std::isfinite(x2) || !std::isfinite(y2)) {
    return {};
  }
  // Pixel x's center lies in [lo, hi] iff ceil(lo - 0.5) <= x <= floor(hi - 0.5).
  // Clamped to the viewport in floating point, so the casts below only see
  // values in [0, width - 1] and [0, height - 1].
  const double lo_x = std::max(0.0, std::ceil(std::min({x0, x1, x2}) - 0.5));
  const double hi_x = std::min(width - 1.0, std::floor(std::max({x0, x1, x2}) - 0.5));
  const double lo_y = std::max(0.0, std::ceil(std::min({y0, y1, y2}) - 0.5));
  const double hi_y = std::min(height - 1.0, std::floor(std::max({y0, y1, y2}) - 0.5));
  if (!(lo_x <= hi_x) || !(lo_y <= hi_y)) return {};
  return {static_cast<int>(lo_x), static_cast<int>(hi_x), static_cast<int>(lo_y),
          static_cast<int>(hi_y)};
}

/// Rasterizes a projected triangle, invoking `emit(x, y, depth)` for every
/// covered pixel center. Iteration order (y-major, then x) and the
/// barycentric depth interpolation are fully deterministic, so the fragment
/// multiset a triangle produces never depends on which raster copy processed
/// it. Returns the number of emitted fragments.
///
/// Only the pixels of pixel_bounds are evaluated, and each edge function's
/// y term is taken once per row; the per-pixel products, their order and
/// the depth formula are unchanged, so the fragments are bit-identical to a
/// per-pixel evaluation over the whole vertex bounding box (the oracle in
/// tests/test_raster.cpp). Built without FP contraction (src/viz/CMakeLists.txt).
template <typename Emit>
std::size_t rasterize(const ScreenTriangle& t, int width, int height,
                      Emit&& emit) {
  const PixelBounds b = pixel_bounds(t, width, height);
  if (b.empty()) return 0;
  const double x0 = t.v0.x, y0 = t.v0.y;
  const double x1 = t.v1.x, y1 = t.v1.y;
  const double x2 = t.v2.x, y2 = t.v2.y;

  // Signed doubled area; sign gives the winding.
  const double area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0);
  if (area == 0.0) return 0;
  const double sign = area > 0.0 ? 1.0 : -1.0;
  const double inv_area = 1.0 / area;

  std::size_t emitted = 0;
  for (int y = b.min_y; y <= b.max_y; ++y) {
    const double py = y + 0.5;
    // Edge functions (doubled barycentric weights): the row terms.
    const double r0 = (x2 - x1) * (py - y1);
    const double r1 = (x0 - x2) * (py - y2);
    const double r2 = (x1 - x0) * (py - y0);
    for (int x = b.min_x; x <= b.max_x; ++x) {
      const double px = x + 0.5;
      const double w0 = r0 - (y2 - y1) * (px - x1);
      const double w1 = r1 - (y0 - y2) * (px - x2);
      const double w2 = r2 - (y1 - y0) * (px - x0);
      if (w0 * sign < 0.0 || w1 * sign < 0.0 || w2 * sign < 0.0) continue;
      const double depth = (w0 * t.v0.depth + w1 * t.v1.depth + w2 * t.v2.depth) *
                           inv_area;
      emit(x, y, static_cast<float>(depth));
      ++emitted;
    }
  }
  return emitted;
}

/// Flat Lambert shading of a face: base color from a blue->red ramp over the
/// normalized scalar, scaled by |N . L| with the light along the view
/// direction, plus an ambient floor. Pure function of its inputs so every
/// raster copy shades identically.
[[nodiscard]] std::uint32_t shade_flat(const Vec3& world_normal,
                                       const Vec3& view_dir, float scalar_norm);

}  // namespace dc::viz
