#include "viz/zbuffer.hpp"

#include <stdexcept>

namespace dc::viz {

ZBuffer::ZBuffer(int width, int height) : width_(width), height_(height) {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("ZBuffer: dimensions must be positive");
  }
  const auto n =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  depth_.assign(n, kEmptyDepth);
  rgba_.assign(n, 0);
}

void ZBuffer::clear() {
  depth_.assign(depth_.size(), kEmptyDepth);
  rgba_.assign(rgba_.size(), 0);
}

bool ZBuffer::apply(std::uint32_t index, float depth, std::uint32_t rgba) {
  if (index >= depth_.size()) return false;
  // An empty cell is (kEmptyDepth, 0): any finite-depth fragment beats it
  // under the same total order, so no special case is needed.
  if (fragment_wins(depth, rgba, depth_[index], rgba_[index])) {
    depth_[index] = depth;
    rgba_[index] = rgba;
    return true;
  }
  return false;
}

std::size_t ZBuffer::active_pixels() const {
  std::size_t n = 0;
  for (float d : depth_) {
    if (d != kEmptyDepth) ++n;
  }
  return n;
}

Image ZBuffer::to_image(std::uint32_t background) const {
  Image img(width_, height_, background);
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      const auto i = static_cast<std::uint32_t>(
          static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
          static_cast<std::size_t>(x));
      if (depth_[i] != kEmptyDepth) img.set(x, y, rgba_[i]);
    }
  }
  return img;
}

FrameSummary ZBuffer::finish_frame(std::uint32_t background) {
  Fnv1a f;
  f.mix(static_cast<std::uint64_t>(width_));
  f.mix(static_cast<std::uint64_t>(height_));
  std::size_t active = 0;
  const std::size_t n = depth_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t p = depth_[i] != kEmptyDepth ? rgba_[i] : background;
    f.mix(p);
    active += p != background ? 1 : 0;
    depth_[i] = kEmptyDepth;
    rgba_[i] = 0;
  }
  return FrameSummary{f.h, active};
}

}  // namespace dc::viz
