#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "viz/image.hpp"

namespace dc::viz {

/// One rendered pixel in transit on the Ra -> M stream: flat pixel index,
/// view-space depth, packed color. Used both for dense z-buffer transfers
/// (every location, including inactive ones — paper Section 3.1.2) and for
/// sparse Winning Pixel Array entries (active pixel rendering).
struct PixEntry {
  std::uint32_t index = 0;
  float depth = 0.f;
  std::uint32_t rgba = 0;
};
static_assert(sizeof(PixEntry) == 12);

/// Dense z-buffer for hidden-surface removal: per pixel, the depth and color
/// of the foremost fragment so far.
///
/// The merge rule is a total order on (depth, rgba): strictly smaller depth
/// wins; on exactly equal depth the smaller packed color wins. The rule is
/// commutative and associative over fragment multisets, which makes the
/// final image independent of fragment arrival order — the invariant the
/// whole transparent-copy machinery relies on.
class ZBuffer {
 public:
  static constexpr float kEmptyDepth = std::numeric_limits<float>::infinity();

  ZBuffer() = default;
  ZBuffer(int width, int height);
  ZBuffer(const ZBuffer&) = default;
  ZBuffer& operator=(const ZBuffer&) = default;
  /// A moved-from buffer is 0x0, not a shape without storage.
  ZBuffer(ZBuffer&& o) noexcept
      : width_(std::exchange(o.width_, 0)),
        height_(std::exchange(o.height_, 0)),
        depth_(std::exchange(o.depth_, {})),
        rgba_(std::exchange(o.rgba_, {})) {}
  ZBuffer& operator=(ZBuffer&& o) noexcept {
    width_ = std::exchange(o.width_, 0);
    height_ = std::exchange(o.height_, 0);
    depth_ = std::exchange(o.depth_, {});
    rgba_ = std::exchange(o.rgba_, {});
    return *this;
  }

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] std::size_t size() const { return depth_.size(); }

  void clear();

  /// Applies one fragment; returns true if it won the pixel.
  bool apply(std::uint32_t index, float depth, std::uint32_t rgba);
  bool apply(const PixEntry& e) { return apply(e.index, e.depth, e.rgba); }

  [[nodiscard]] float depth_at(std::uint32_t index) const { return depth_[index]; }
  [[nodiscard]] std::uint32_t rgba_at(std::uint32_t index) const {
    return rgba_[index];
  }
  [[nodiscard]] bool active(std::uint32_t index) const {
    return depth_[index] != kEmptyDepth;
  }
  [[nodiscard]] std::size_t active_pixels() const;

  /// Extracts the color image; inactive pixels get `background`.
  [[nodiscard]] Image to_image(std::uint32_t background = 0) const;

  /// Ends a frame in one pass: returns what to_image(background).summarize(
  /// background) would, and leaves every pixel empty, as clear() does.
  [[nodiscard]] FrameSummary finish_frame(std::uint32_t background);

 private:
  int width_ = 0, height_ = 0;
  std::vector<float> depth_;
  std::vector<std::uint32_t> rgba_;
};

/// The fragment ordering used everywhere (ZBuffer::apply, the Active Pixel
/// in-buffer dedup, tests): returns true when (d2, c2) beats (d1, c1).
[[nodiscard]] constexpr bool fragment_wins(float d2, std::uint32_t c2, float d1,
                                           std::uint32_t c1) {
  return d2 < d1 || (d2 == d1 && c2 < c1);
}

}  // namespace dc::viz
