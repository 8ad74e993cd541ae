#include "viz/camera.hpp"

#include <algorithm>
#include <cmath>

namespace dc::viz {

namespace {
constexpr float kPi = 3.14159265358979323846f;
}

Camera::Camera(Vec3 eye, Vec3 target, Vec3 up, float fov_y_deg, int width,
               int height)
    : eye_(eye), width_(width), height_(height) {
  forward_ = (target - eye).normalized();
  right_ = forward_.cross(up).normalized();
  up_ = right_.cross(forward_);
  view_dir_ = forward_;
  const float fov = fov_y_deg * kPi / 180.f;
  focal_ = (static_cast<float>(height) * 0.5f) / std::tan(fov * 0.5f);
}

Camera Camera::for_volume(int nx, int ny, int nz, int width, int height,
                          int view_index) {
  const Vec3 center{static_cast<float>(nx) * 0.5f, static_cast<float>(ny) * 0.5f,
                    static_cast<float>(nz) * 0.5f};
  const float diag = Vec3{static_cast<float>(nx), static_cast<float>(ny),
                          static_cast<float>(nz)}
                         .length();
  // A few fixed corner-ish directions; view_index picks one.
  static constexpr float kDirs[4][3] = {
      {1.f, 0.8f, 0.9f}, {-1.f, 0.7f, 1.1f}, {0.9f, -1.f, 0.8f}, {1.1f, 0.9f, -1.f}};
  const auto& d = kDirs[view_index & 3];
  const Vec3 dir = Vec3{d[0], d[1], d[2]}.normalized();
  const Vec3 eye = center + dir * (1.6f * diag);
  return Camera(eye, center, Vec3{0.f, 0.f, 1.f}, 40.f, width, height);
}

bool Camera::project_vertex(const Vec3& p, ScreenVertex& out) const {
  const Vec3 rel = p - eye_;
  const float depth = rel.dot(forward_);
  if (depth < near_) return false;
  const float u = rel.dot(right_);
  const float v = rel.dot(up_);
  out.x = static_cast<float>(width_) * 0.5f + focal_ * u / depth;
  out.y = static_cast<float>(height_) * 0.5f - focal_ * v / depth;
  out.depth = depth;
  return true;
}

bool Camera::project(const Triangle& tri, ScreenTriangle& out) const {
  if (!project_position(tri, out)) return false;
  out.world_normal = tri.face_normal();
  return true;
}

bool Camera::project_position(const Triangle& tri, ScreenTriangle& out) const {
  // Reject (rather than clip) triangles crossing the near plane: the camera
  // frames the whole volume, so this only guards degenerate setups.
  if (!project_vertex(tri.v0, out.v0) || !project_vertex(tri.v1, out.v1) ||
      !project_vertex(tri.v2, out.v2)) {
    return false;
  }
  // Trivial reject when fully outside the viewport.
  const float min_x = std::min({out.v0.x, out.v1.x, out.v2.x});
  const float max_x = std::max({out.v0.x, out.v1.x, out.v2.x});
  const float min_y = std::min({out.v0.y, out.v1.y, out.v2.y});
  const float max_y = std::max({out.v0.y, out.v1.y, out.v2.y});
  if (max_x < 0.f || min_x >= static_cast<float>(width_) || max_y < 0.f ||
      min_y >= static_cast<float>(height_)) {
    return false;
  }
  return true;
}

}  // namespace dc::viz
