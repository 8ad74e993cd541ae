#pragma once

#include <cstdint>
#include <vector>

#include "viz/geometry.hpp"

namespace dc::viz {

/// Work counters from one marching-cubes sweep; the Extract filter charges
/// its CPU demand from these.
struct McStats {
  std::uint64_t cells = 0;         ///< cells visited
  std::uint64_t active_cells = 0;  ///< cells crossed by the surface
  std::uint64_t triangles = 0;     ///< triangles emitted
};

/// Whether a block whose samples span [min_value, max_value] can emit a
/// triangle at `iso`. marching_cubes sets a corner bit iff `val < iso`, and
/// a cell emits only when some of its corner bits are set and some are not.
/// So a block with no sample below iso, or none at or above it, emits
/// nothing: the test is exact, with no epsilon, provided the range covers
/// every sample the block's cells read (a stored chunk includes its halo).
/// A NaN sample never sets a bit; io::value_range records it as +inf.
[[nodiscard]] constexpr bool iso_can_cross(float min_value, float max_value,
                                           float iso) {
  return min_value < iso && iso <= max_value;
}

/// Marching cubes (Lorensen & Cline 1987) over one block of cells.
///
/// `samples` holds (nx+1) * (ny+1) * (nz+1) grid-point scalars, x fastest,
/// then y, then z — the layout PlumeField::fill_chunk produces. The block's
/// lower corner sits at grid coordinates (ox, oy, oz); emitted triangle
/// vertices are in global grid coordinates, so triangles from different
/// chunks stitch seamlessly.
///
/// Triangles are appended to `out` in deterministic cell order.
McStats marching_cubes(const float* samples, int nx, int ny, int nz, float ox,
                       float oy, float oz, float iso,
                       std::vector<Triangle>& out);

}  // namespace dc::viz
