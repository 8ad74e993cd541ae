#pragma once

#include "viz/geometry.hpp"

namespace dc::viz {

/// A vertex after projection to the screen: integer-domain pixel coordinates
/// (still float) plus view-space depth (smaller = closer to the viewer).
struct ScreenVertex {
  float x = 0.f;
  float y = 0.f;
  float depth = 0.f;
};

struct ScreenTriangle {
  ScreenVertex v0, v1, v2;
  Vec3 world_normal;  ///< face normal in world space, for shading
};

/// Simple look-at perspective camera producing screen-space triangles
/// (the "transform from world coordinates to viewing coordinates ...
/// projected onto a 2-dimensional image plane" step of the Raster filter).
class Camera {
 public:
  Camera() = default;

  /// `eye` looks at `target`; `fov_y_deg` vertical field of view; the
  /// viewport is width x height pixels.
  Camera(Vec3 eye, Vec3 target, Vec3 up, float fov_y_deg, int width, int height);

  /// A canonical view of the volume box [0,nx]x[0,ny]x[0,nz], from a corner
  /// direction, framing the whole volume. `view_index` rotates among a few
  /// directions so that successive timesteps/UOWs can vary the viewpoint.
  static Camera for_volume(int nx, int ny, int nz, int width, int height,
                           int view_index = 0);

  /// Projects a world-space triangle. Returns false if the triangle is
  /// rejected (behind the near plane or fully outside the viewport).
  bool project(const Triangle& tri, ScreenTriangle& out) const;

  /// project() without the face normal: `out.world_normal` is left as it
  /// was, for callers that shade only triangles that cover a pixel.
  bool project_position(const Triangle& tri, ScreenTriangle& out) const;

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] Vec3 view_dir() const { return view_dir_; }

 private:
  [[nodiscard]] bool project_vertex(const Vec3& p, ScreenVertex& out) const;

  Vec3 eye_{};
  Vec3 view_dir_{0.f, 0.f, 1.f};
  // Orthonormal camera basis.
  Vec3 right_{1.f, 0.f, 0.f}, up_{0.f, 1.f, 0.f}, forward_{0.f, 0.f, 1.f};
  float focal_ = 1.f;  ///< pixels
  float near_ = 1e-3f;
  int width_ = 0, height_ = 0;
};

}  // namespace dc::viz
