#include "viz/marching_cubes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>

#include "data/synth.hpp"
#include "data/volume.hpp"
#include "io/format.hpp"
#include "sim/rng.hpp"
#include "viz/mc_tables.hpp"

namespace dc::viz {
namespace {

/// Samples f over an (n+1)^3 point grid.
template <typename F>
std::vector<float> sample_grid(int n, F&& f) {
  std::vector<float> s;
  s.reserve(static_cast<std::size_t>(n + 1) * (n + 1) * (n + 1));
  for (int z = 0; z <= n; ++z) {
    for (int y = 0; y <= n; ++y) {
      for (int x = 0; x <= n; ++x) {
        s.push_back(f(static_cast<float>(x), static_cast<float>(y),
                      static_cast<float>(z)));
      }
    }
  }
  return s;
}

TEST(McTables, EdgeTableMatchesTriTable) {
  // The edge bitmask of each case must be exactly the set of edges its
  // triangle list references — catches typos in either table.
  for (int c = 0; c < 256; ++c) {
    std::uint16_t derived = 0;
    for (int i = 0; i < 16 && mc::kTriTable[c][i] != -1; ++i) {
      ASSERT_GE(mc::kTriTable[c][i], 0);
      ASSERT_LT(mc::kTriTable[c][i], 12);
      derived |= static_cast<std::uint16_t>(1u << mc::kTriTable[c][i]);
    }
    EXPECT_EQ(derived, mc::kEdgeTable[c]) << "case " << c;
  }
}

TEST(McTables, ComplementSymmetry) {
  for (int c = 0; c < 256; ++c) {
    EXPECT_EQ(mc::kEdgeTable[c], mc::kEdgeTable[255 - c]) << "case " << c;
  }
}

TEST(McTables, TriangleListsAreTriples) {
  for (int c = 0; c < 256; ++c) {
    int len = 0;
    while (len < 16 && mc::kTriTable[c][len] != -1) ++len;
    EXPECT_EQ(len % 3, 0) << "case " << c;
    EXPECT_LE(len, 15);
  }
}

TEST(McTables, EdgeCornersAreConsistent) {
  // Each edge connects corners differing in exactly one axis.
  constexpr int off[8][3] = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
                             {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}};
  for (int e = 0; e < 12; ++e) {
    const int a = mc::kEdgeCorners[e][0];
    const int b = mc::kEdgeCorners[e][1];
    int diff = 0;
    for (int d = 0; d < 3; ++d) diff += std::abs(off[a][d] - off[b][d]);
    EXPECT_EQ(diff, 1) << "edge " << e;
  }
}

TEST(MarchingCubes, EmptyFieldProducesNothing) {
  const auto s = sample_grid(4, [](float, float, float) { return 0.f; });
  std::vector<Triangle> tris;
  const McStats stats = marching_cubes(s.data(), 4, 4, 4, 0, 0, 0, 0.5f, tris);
  EXPECT_EQ(stats.cells, 64u);
  EXPECT_EQ(stats.active_cells, 0u);
  EXPECT_TRUE(tris.empty());
}

TEST(MarchingCubes, FullFieldProducesNothing) {
  const auto s = sample_grid(4, [](float, float, float) { return 1.f; });
  std::vector<Triangle> tris;
  marching_cubes(s.data(), 4, 4, 4, 0, 0, 0, 0.5f, tris);
  EXPECT_TRUE(tris.empty());
}

TEST(MarchingCubes, SingleInsideCornerGivesOneTriangle) {
  // Only grid point (0,0,0) below iso: exactly one cell crossed, one tri.
  const auto s = sample_grid(2, [](float x, float y, float z) {
    return (x == 0.f && y == 0.f && z == 0.f) ? 0.f : 1.f;
  });
  std::vector<Triangle> tris;
  const McStats stats = marching_cubes(s.data(), 2, 2, 2, 0, 0, 0, 0.5f, tris);
  EXPECT_EQ(stats.active_cells, 1u);
  EXPECT_EQ(tris.size(), 1u);
}

float sphere(float x, float y, float z, float cx, float cy, float cz) {
  const float dx = x - cx, dy = y - cy, dz = z - cz;
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

TEST(MarchingCubes, SphereAreaApproximatesAnalytic) {
  const int n = 32;
  const float r = 10.f;
  const auto s = sample_grid(
      n, [&](float x, float y, float z) { return sphere(x, y, z, 16, 16, 16); });
  std::vector<Triangle> tris;
  marching_cubes(s.data(), n, n, n, 0, 0, 0, r, tris);
  double area = 0;
  for (const auto& t : tris) area += t.area();
  const double analytic = 4.0 * 3.14159265358979 * r * r;
  EXPECT_NEAR(area, analytic, 0.03 * analytic);
}

TEST(MarchingCubes, SphereMeshIsWatertight) {
  // The strongest table validation: weld vertices, then require (a) every
  // edge shared by exactly two triangles and (b) Euler characteristic
  // V - E + F = 2 (genus-0 closed surface).
  const int n = 16;
  const float r = 5.f;
  const auto s = sample_grid(
      n, [&](float x, float y, float z) { return sphere(x, y, z, 8, 8, 8); });
  std::vector<Triangle> tris;
  marching_cubes(s.data(), n, n, n, 0, 0, 0, r, tris);
  ASSERT_GT(tris.size(), 100u);

  auto key = [](const Vec3& v) {
    auto q = [](float f) { return std::llround(static_cast<double>(f) * 4096.0); };
    return std::tuple<long long, long long, long long>(q(v.x), q(v.y), q(v.z));
  };
  std::map<std::tuple<long long, long long, long long>, int> vid;
  auto id_of = [&](const Vec3& v) {
    return vid.emplace(key(v), static_cast<int>(vid.size())).first->second;
  };
  std::map<std::pair<int, int>, int> edge_count;
  std::size_t degenerate = 0;
  std::size_t faces = 0;
  for (const auto& t : tris) {
    const int a = id_of(t.v0), b = id_of(t.v1), c = id_of(t.v2);
    if (a == b || b == c || a == c) {
      ++degenerate;  // surface grazing a corner; contributes no area
      continue;
    }
    ++faces;
    auto touch = [&](int u, int v) {
      ++edge_count[{std::min(u, v), std::max(u, v)}];
    };
    touch(a, b);
    touch(b, c);
    touch(c, a);
  }
  for (const auto& [e, count] : edge_count) {
    ASSERT_EQ(count, 2) << "non-manifold edge (" << e.first << "," << e.second
                        << ")";
  }
  const long long v_count = static_cast<long long>(vid.size());
  const long long e_count = static_cast<long long>(edge_count.size());
  const long long f_count = static_cast<long long>(faces);
  EXPECT_EQ(v_count - e_count + f_count, 2) << "Euler characteristic";
}

TEST(MarchingCubes, VerticesLieOnIsoLevel) {
  const int n = 8;
  const auto s = sample_grid(
      n, [&](float x, float y, float z) { return x + 0.3f * y + 0.1f * z; });
  std::vector<Triangle> tris;
  marching_cubes(s.data(), n, n, n, 0, 0, 0, 4.f, tris);
  ASSERT_FALSE(tris.empty());
  for (const auto& t : tris) {
    for (const Vec3& v : {t.v0, t.v1, t.v2}) {
      const float field = v.x + 0.3f * v.y + 0.1f * v.z;
      EXPECT_NEAR(field, 4.f, 0.02f);
    }
  }
}

TEST(MarchingCubes, OffsetShiftsVertices) {
  const auto s = sample_grid(2, [](float x, float, float) { return x; });
  std::vector<Triangle> a, b;
  marching_cubes(s.data(), 2, 2, 2, 0, 0, 0, 1.f, a);
  marching_cubes(s.data(), 2, 2, 2, 10, 20, 30, 1.f, b);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  EXPECT_FLOAT_EQ(b[0].v0.x - a[0].v0.x, 10.f);
  EXPECT_FLOAT_EQ(b[0].v0.y - a[0].v0.y, 20.f);
  EXPECT_FLOAT_EQ(b[0].v0.z - a[0].v0.z, 30.f);
}

TEST(MarchingCubes, ChunkedExtractionMatchesWholeGrid) {
  // Extracting two half-grids (sharing a sample plane) must yield the same
  // triangle multiset as one full-grid pass — the property that lets the
  // Read filter split chunks into blocks freely.
  const int n = 8;
  auto f = [&](float x, float y, float z) { return sphere(x, y, z, 4, 4, 4); };
  const auto whole = sample_grid(n, f);
  std::vector<Triangle> all;
  marching_cubes(whole.data(), n, n, n, 0, 0, 0, 3.f, all);

  std::vector<Triangle> parts;
  for (int half = 0; half < 2; ++half) {
    const int z0 = half * (n / 2);
    std::vector<float> s;
    for (int z = z0; z <= z0 + n / 2; ++z) {
      for (int y = 0; y <= n; ++y) {
        for (int x = 0; x <= n; ++x) {
          s.push_back(f(static_cast<float>(x), static_cast<float>(y),
                        static_cast<float>(z)));
        }
      }
    }
    marching_cubes(s.data(), n, n, n / 2, 0, 0, static_cast<float>(z0), 3.f,
                   parts);
  }
  ASSERT_EQ(all.size(), parts.size());
  double area_all = 0, area_parts = 0;
  for (const auto& t : all) area_all += t.area();
  for (const auto& t : parts) area_parts += t.area();
  EXPECT_NEAR(area_all, area_parts, 1e-3);
}

// ---------------------------------------------------------------------------
// iso_can_cross: the out-of-core Read side skips a chunk whose stored value
// range fails it, so it must never skip a payload marching_cubes would
// extract triangles from.
// ---------------------------------------------------------------------------

/// Triangles marching_cubes emits on an n^3-cell payload at `iso`.
std::size_t triangles_at(const std::vector<float>& s, int n, float iso) {
  std::vector<Triangle> tris;
  marching_cubes(s.data(), n, n, n, 0, 0, 0, iso, tris);
  return tris.size();
}

bool can_cross(const std::vector<float>& s, float iso) {
  const io::ValueRange r = io::value_range(s);
  return iso_can_cross(r.min, r.max, iso);
}

TEST(IsoCanCross, IsoAtMinimumIsPrunedAndEmitsNothing) {
  // No sample is below iso == min, so no corner bit is ever set.
  const auto s = sample_grid(2, [](float x, float, float) { return x; });
  ASSERT_EQ(io::value_range(s), (io::ValueRange{0.f, 2.f}));
  EXPECT_FALSE(can_cross(s, 0.f));
  EXPECT_EQ(triangles_at(s, 2, 0.f), 0u);
}

TEST(IsoCanCross, IsoAtMaximumIsKeptAndEmits) {
  // The samples at x == 2 are not below iso == max; the rest are.
  const auto s = sample_grid(2, [](float x, float, float) { return x; });
  EXPECT_TRUE(can_cross(s, 2.f));
  EXPECT_GT(triangles_at(s, 2, 2.f), 0u);
}

TEST(IsoCanCross, NanSampleCountsAsAboveEveryIso) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto below = sample_grid(2, [](float, float, float) { return 0.f; });
  below[13] = nan;  // the centre point
  EXPECT_EQ(io::value_range(below),
            (io::ValueRange{0.f, std::numeric_limits<float>::infinity()}));
  // Every other corner is below iso; the NaN corner is not.
  EXPECT_TRUE(can_cross(below, 0.5f));
  EXPECT_GT(triangles_at(below, 2, 0.5f), 0u);

  auto above = sample_grid(2, [](float, float, float) { return 1.f; });
  above[13] = nan;
  EXPECT_FALSE(can_cross(above, 0.5f));
  EXPECT_EQ(triangles_at(above, 2, 0.5f), 0u);

  const std::vector<float> all_nan(27, nan);
  EXPECT_FALSE(can_cross(all_nan, 0.5f));
  EXPECT_EQ(triangles_at(all_nan, 2, 0.5f), 0u);
}

TEST(IsoCanCross, EmptyRangeNeverCrosses) {
  const io::ValueRange r = io::value_range({});
  EXPECT_FALSE(iso_can_cross(r.min, r.max, 0.f));
  const io::ValueRange open;
  EXPECT_TRUE(iso_can_cross(open.min, open.max, 0.f));
}

TEST(IsoCanCross, SeededPayloadsAgreeWithMarchingCubes) {
  // Small random payloads over a few levels, so ties with iso are common,
  // with the odd NaN; iso is one of the payload's own values, or one level
  // above them all so that only a NaN is not below it. The predicate is
  // exact both ways on one connected block: pruned means no triangle, kept
  // means at least one.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  sim::Rng rng(20021);
  int pruned = 0, kept = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = 1 + static_cast<int>(rng.below(3));
    const int levels = 1 + static_cast<int>(rng.below(4));
    std::vector<float> s;
    for (int i = 0; i < (n + 1) * (n + 1) * (n + 1); ++i) {
      s.push_back(rng.below(25) == 0
                      ? nan
                      : static_cast<float>(rng.below(
                            static_cast<std::uint64_t>(levels))));
    }
    float iso = static_cast<float>(levels);
    if (rng.below(4) != 0) {
      const float v = s[rng.below(s.size())];
      if (!std::isnan(v)) iso = v;
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t tris = triangles_at(s, n, iso);
    if (can_cross(s, iso)) {
      ++kept;
      EXPECT_GT(tris, 0u);
    } else {
      ++pruned;
      EXPECT_EQ(tris, 0u);
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(pruned, 100);
  EXPECT_GT(kept, 100);
}

// ---------------------------------------------------------------------------
// Frozen oracle: marching_cubes as it was before it classified a row of
// cells at a time — eight compares per cell, every cell. The production
// kernel must emit the same triangle bytes and the same McStats.
// ---------------------------------------------------------------------------

constexpr int kOracleCornerOffset[8][3] = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0},
                                           {0, 1, 0}, {0, 0, 1}, {1, 0, 1},
                                           {1, 1, 1}, {0, 1, 1}};

Vec3 oracle_interp(float iso, const Vec3& p1, const Vec3& p2, float v1, float v2) {
  if (std::abs(iso - v1) < 1e-5f) return p1;
  if (std::abs(iso - v2) < 1e-5f) return p2;
  if (std::abs(v1 - v2) < 1e-5f) return p1;
  const float mu = (iso - v1) / (v2 - v1);
  return p1 + (p2 - p1) * mu;
}

McStats oracle_marching_cubes(const float* samples, int nx, int ny, int nz,
                              float ox, float oy, float oz, float iso,
                              std::vector<Triangle>& out) {
  McStats stats;
  const int sx = nx + 1;  // samples per row
  const int sy = ny + 1;
  auto sample = [&](int x, int y, int z) {
    return samples[static_cast<std::size_t>(z) * static_cast<std::size_t>(sx) *
                       static_cast<std::size_t>(sy) +
                   static_cast<std::size_t>(y) * static_cast<std::size_t>(sx) +
                   static_cast<std::size_t>(x)];
  };

  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        ++stats.cells;
        float val[8];
        Vec3 pos[8];
        int cube_index = 0;
        for (int c = 0; c < 8; ++c) {
          const int cx = x + kOracleCornerOffset[c][0];
          const int cy = y + kOracleCornerOffset[c][1];
          const int cz = z + kOracleCornerOffset[c][2];
          val[c] = sample(cx, cy, cz);
          pos[c] = Vec3{ox + static_cast<float>(cx), oy + static_cast<float>(cy),
                        oz + static_cast<float>(cz)};
          if (val[c] < iso) cube_index |= 1 << c;
        }
        const std::uint16_t edges = mc::kEdgeTable[cube_index];
        if (edges == 0) continue;
        ++stats.active_cells;

        Vec3 vert[12];
        for (int e = 0; e < 12; ++e) {
          if (edges & (1u << e)) {
            const int a = mc::kEdgeCorners[e][0];
            const int b = mc::kEdgeCorners[e][1];
            vert[e] = oracle_interp(iso, pos[a], pos[b], val[a], val[b]);
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

/// Runs both kernels on one payload; returns the triangles emitted.
std::size_t expect_matches_oracle(const std::vector<float>& s, int nx, int ny,
                                  int nz, float ox, float oy, float oz, float iso) {
  std::vector<Triangle> got, want;
  const McStats g = marching_cubes(s.data(), nx, ny, nz, ox, oy, oz, iso, got);
  const McStats w = oracle_marching_cubes(s.data(), nx, ny, nz, ox, oy, oz, iso, want);
  EXPECT_EQ(g.cells, w.cells);
  EXPECT_EQ(g.active_cells, w.active_cells);
  EXPECT_EQ(g.triangles, w.triangles);
  EXPECT_EQ(got.size(), want.size());
  if (!got.empty() && got.size() == want.size()) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(Triangle)), 0)
        << "triangle bytes differ";
  }
  return want.size();
}

TEST(MarchingCubesOracle, SeededPayloadsMatch) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  sim::Rng rng(18);
  std::size_t triangles = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const int nx = 1 + static_cast<int>(rng.below(13));
    const int ny = 1 + static_cast<int>(rng.below(13));
    const int nz = 1 + static_cast<int>(rng.below(13));
    const std::size_t points = static_cast<std::size_t>(nx + 1) *
                               static_cast<std::size_t>(ny + 1) *
                               static_cast<std::size_t>(nz + 1);
    // Plane fields make whole rows of equal codes; few-level fields make
    // samples equal to iso; a share of every kind gets NaN samples.
    const int kind = trial % 3;
    const float a = static_cast<float>(rng.uniform(-1, 1));
    const float b = static_cast<float>(rng.uniform(-1, 1));
    const float c = static_cast<float>(rng.uniform(-1, 1));
    const int levels = 1 + static_cast<int>(rng.below(5));
    const bool with_nan = rng.below(3) == 0;
    std::vector<float> s;
    s.reserve(points);
    for (int z = 0; z <= nz; ++z) {
      for (int y = 0; y <= ny; ++y) {
        for (int x = 0; x <= nx; ++x) {
          float v = 0.f;
          if (kind == 0) {
            v = static_cast<float>(rng.uniform());
          } else if (kind == 1) {
            v = static_cast<float>(rng.below(static_cast<std::uint64_t>(levels)));
          } else {
            v = a * static_cast<float>(x) + b * static_cast<float>(y) +
                c * static_cast<float>(z);
          }
          s.push_back(with_nan && rng.below(20) == 0 ? nan : v);
        }
      }
    }
    float iso = s[rng.below(points)];  // often exactly a sample
    if (std::isnan(iso) || rng.below(3) == 0) {
      iso = kind == 1 ? static_cast<float>(rng.below(static_cast<std::uint64_t>(levels + 1)))
                      : static_cast<float>(rng.uniform(-4, 4));
    }
    SCOPED_TRACE(testing::Message() << "trial " << trial << " kind " << kind
                                    << " " << nx << "x" << ny << "x" << nz);
    triangles += expect_matches_oracle(s, nx, ny, nz, static_cast<float>(trial), -3.f,
                                       0.5f, iso);
  }
  EXPECT_GT(triangles, 10000u);
}

TEST(MarchingCubesOracle, PlumeChunksMatch) {
  // The benchmark's chunks: 12^3 cells plus the one-point halo, at the
  // field's lower quartile (a surface of the benchmark's kind, crossing a
  // few percent of the cells) and at a sample value of each chunk.
  const data::ChunkLayout layout(data::GridDims{48, 48, 48}, 4, 4, 4);
  for (const std::uint64_t seed : {2002u, 7u}) {
    const data::PlumeField field(seed);
    std::vector<float> s;
    field.fill_chunk(data::ChunkLayout(data::GridDims{48, 48, 48}, 1, 1, 1), 0, 3.f, s);
    std::nth_element(s.begin(), s.begin() + s.size() / 4, s.end());
    const float quartile = s[s.size() / 4];
    std::size_t triangles = 0;
    for (int c = 0; c < layout.num_chunks(); ++c) {
      field.fill_chunk(layout, c, 3.f, s);
      const data::CellBox box = layout.chunk_box(c);
      for (const float iso : {quartile, s[s.size() / 2]}) {
        triangles += expect_matches_oracle(
            s, box.hi[0] - box.lo[0], box.hi[1] - box.lo[1], box.hi[2] - box.lo[2],
            static_cast<float>(box.lo[0]), static_cast<float>(box.lo[1]),
            static_cast<float>(box.lo[2]), iso);
      }
    }
    EXPECT_GT(triangles, 10000u);
  }
}

}  // namespace
}  // namespace dc::viz
