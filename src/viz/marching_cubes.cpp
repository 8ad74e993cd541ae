#include "viz/marching_cubes.hpp"

#include <array>

#include "viz/mc_tables.hpp"

namespace dc::viz {

namespace {

// Corner positions within a cell, matching the numbering in mc_tables.hpp.
constexpr int kCornerOffset[8][3] = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
                                     {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}};

/// Cube-index bits of a column code (bit 0 (y, z), 1 (y + 1, z), 2 (y, z + 1),
/// 3 (y + 1, z + 1)) when the column is a cell's left (x) side — corners
/// 0, 3, 4, 7 — or its right (x + 1) side — corners 1, 2, 5, 6.
constexpr std::array<std::uint8_t, 16> spread_code(int c_yz, int c_y1z, int c_yz1,
                                                   int c_y1z1) {
  std::array<std::uint8_t, 16> t{};
  for (int code = 0; code < 16; ++code) {
    t[static_cast<std::size_t>(code)] = static_cast<std::uint8_t>(
        ((code & 1) ? 1 << c_yz : 0) | ((code & 2) ? 1 << c_y1z : 0) |
        ((code & 4) ? 1 << c_yz1 : 0) | ((code & 8) ? 1 << c_y1z1 : 0));
  }
  return t;
}
constexpr std::array<std::uint8_t, 16> kLeftCorners = spread_code(0, 3, 4, 7);
constexpr std::array<std::uint8_t, 16> kRightCorners = spread_code(1, 2, 5, 6);

/// Linear interpolation of the iso crossing between two corner positions.
Vec3 interp(float iso, const Vec3& p1, const Vec3& p2, float v1, float v2) {
  // Guard against division by ~zero when the surface grazes a corner; the
  // cutoffs match the classic implementation so meshes stay watertight
  // (adjacent cells make the same decision from the same corner values).
  if (std::abs(iso - v1) < 1e-5f) return p1;
  if (std::abs(iso - v2) < 1e-5f) return p2;
  if (std::abs(v1 - v2) < 1e-5f) return p1;
  const float mu = (iso - v1) / (v2 - v1);
  return p1 + (p2 - p1) * mu;
}

}  // namespace

McStats marching_cubes(const float* samples, int nx, int ny, int nz, float ox,
                       float oy, float oz, float iso,
                       std::vector<Triangle>& out) {
  McStats stats;
  const int sx = nx + 1;  // samples per row
  const int sy = ny + 1;
  auto row = [&](int y, int z) {
    return samples + static_cast<std::size_t>(z) * static_cast<std::size_t>(sx) *
                         static_cast<std::size_t>(sy) +
           static_cast<std::size_t>(y) * static_cast<std::size_t>(sx);
  };

  // codes[x]: the code of sample column x of the current row of cells, each
  // bit set iff `val < iso` (so a NaN sample sets none).
  std::vector<std::uint8_t> codes(static_cast<std::size_t>(sx));
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      stats.cells += static_cast<std::uint64_t>(nx);
      const float* r00 = row(y, z);
      const float* r10 = row(y + 1, z);
      const float* r01 = row(y, z + 1);
      const float* r11 = row(y + 1, z + 1);
      unsigned all_set = 15, any_set = 0;
      for (int x = 0; x < sx; ++x) {
        const unsigned code = static_cast<unsigned>(r00[x] < iso) |
                              static_cast<unsigned>(r10[x] < iso) << 1 |
                              static_cast<unsigned>(r01[x] < iso) << 2 |
                              static_cast<unsigned>(r11[x] < iso) << 3;
        codes[static_cast<std::size_t>(x)] = static_cast<std::uint8_t>(code);
        all_set &= code;
        any_set |= code;
      }
      // Every corner of the row below iso, or none: no cell is crossed.
      if (any_set == 0 || all_set == 15) continue;

      for (int x = 0; x < nx; ++x) {
        const int cube_index = kLeftCorners[codes[static_cast<std::size_t>(x)]] |
                               kRightCorners[codes[static_cast<std::size_t>(x) + 1]];
        const std::uint16_t edges = mc::kEdgeTable[cube_index];
        if (edges == 0) continue;
        ++stats.active_cells;

        float val[8];
        Vec3 pos[8];
        for (int c = 0; c < 8; ++c) {
          const int cx = x + kCornerOffset[c][0];
          const int cy = y + kCornerOffset[c][1];
          const int cz = z + kCornerOffset[c][2];
          val[c] = row(cy, cz)[cx];
          pos[c] = Vec3{ox + static_cast<float>(cx), oy + static_cast<float>(cy),
                        oz + static_cast<float>(cz)};
        }

        Vec3 vert[12];
        for (int e = 0; e < 12; ++e) {
          if (edges & (1u << e)) {
            const int a = mc::kEdgeCorners[e][0];
            const int b = mc::kEdgeCorners[e][1];
            vert[e] = interp(iso, pos[a], pos[b], val[a], val[b]);
          }
        }

        const std::int8_t* tris = mc::kTriTable[cube_index];
        for (int i = 0; tris[i] != -1; i += 3) {
          Triangle t;
          t.v0 = vert[tris[i]];
          t.v1 = vert[tris[i + 1]];
          t.v2 = vert[tris[i + 2]];
          out.push_back(t);
          ++stats.triangles;
        }
      }
    }
  }
  return stats;
}

}  // namespace dc::viz
