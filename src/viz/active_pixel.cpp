#include "viz/active_pixel.hpp"

#include <stdexcept>

#include "viz/raster.hpp"

namespace dc::viz {

namespace {
constexpr std::uint64_t kInvalidKey = ~0ULL;
}

ActivePixelRaster::ActivePixelRaster(int width, int height,
                                     std::size_t wpa_capacity)
    : width_(width), height_(height), capacity_(wpa_capacity) {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("ActivePixelRaster: bad dimensions");
  }
  if (wpa_capacity == 0) {
    throw std::invalid_argument("ActivePixelRaster: zero WPA capacity");
  }
  wpa_.reserve(capacity_);
  msa_slot_.assign(static_cast<std::size_t>(width), 0);
  msa_key_.assign(static_cast<std::size_t>(width), kInvalidKey);
}

void ActivePixelRaster::emit_fragment(int x, int y, float depth,
                                      std::uint32_t rgba, const FlushFn& flush) {
  ++fragments_;
  const auto xi = static_cast<std::size_t>(x);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(generation_) << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(y));
  if (msa_key_[xi] == key) {
    // Same pixel already has an entry in the in-flight WPA: keep the winner.
    PixEntry& e = wpa_[msa_slot_[xi]];
    if (fragment_wins(depth, rgba, e.depth, e.rgba)) {
      e.depth = depth;
      e.rgba = rgba;
    }
    ++dedup_hits_;
    return;
  }
  PixEntry e;
  e.index = static_cast<std::uint32_t>(y) * static_cast<std::uint32_t>(width_) +
            static_cast<std::uint32_t>(x);
  e.depth = depth;
  e.rgba = rgba;
  msa_slot_[xi] = static_cast<std::uint32_t>(wpa_.size());
  msa_key_[xi] = key;
  wpa_.push_back(e);
  if (wpa_.size() >= capacity_) {
    this->flush(flush);
  }
}

std::size_t ActivePixelRaster::add(const ScreenTriangle& tri, std::uint32_t rgba,
                                   const FlushFn& flush) {
  return rasterize(tri, width_, height_, [&](int x, int y, float depth) {
    emit_fragment(x, y, depth, rgba, flush);
  });
}

void ActivePixelRaster::flush(const FlushFn& flush) {
  if (wpa_.empty()) return;
  emitted_ += wpa_.size();
  flush(wpa_);
  wpa_.clear();
  // Invalidate all MSA slots lazily by bumping the generation.
  ++generation_;
}

}  // namespace dc::viz
