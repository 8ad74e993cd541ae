#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "viz/camera.hpp"
#include "viz/zbuffer.hpp"

namespace dc::viz {

/// Active Pixel rendering (paper Section 3.1.2): a sparse alternative to the
/// dense z-buffer. Foremost pixels are stored compactly in a Winning Pixel
/// Array (WPA) — here a vector of PixEntry that fills a fixed-size stream
/// buffer — while a Modified Scanline Array (MSA) of one slot per screen
/// column indexes the WPA for the scanline being processed, so fragments
/// that hit a pixel already in the in-flight WPA update it in place instead
/// of appending a duplicate.
///
/// The WPA is handed to `flush` when full (and on demand at input-buffer
/// boundaries / end of work), then reset — which is exactly why active pixel
/// rendering pipelines with the downstream merge while z-buffer rendering
/// stalls until end of work.
class ActivePixelRaster {
 public:
  using FlushFn = std::function<void(const std::vector<PixEntry>&)>;

  /// `wpa_capacity` is the number of entries that fit the output stream
  /// buffer.
  ActivePixelRaster(int width, int height, std::size_t wpa_capacity);

  /// Rasterizes one shaded triangle; may invoke `flush` (possibly several
  /// times) when the WPA fills. Returns the fragments it generated.
  std::size_t add(const ScreenTriangle& tri, std::uint32_t rgba, const FlushFn& flush);

  /// Emits the current partial WPA if non-empty ("when all triangles in the
  /// current input buffer are processed").
  void flush(const FlushFn& flush);

  [[nodiscard]] std::uint64_t fragments_generated() const { return fragments_; }
  [[nodiscard]] std::uint64_t entries_emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t in_buffer_hits() const { return dedup_hits_; }
  [[nodiscard]] std::size_t wpa_size() const { return wpa_.size(); }

 private:
  void emit_fragment(int x, int y, float depth, std::uint32_t rgba,
                     const FlushFn& flush);

  int width_ = 0, height_ = 0;
  std::size_t capacity_ = 0;
  std::vector<PixEntry> wpa_;
  // MSA: per screen column, the WPA slot of the last fragment written there
  // plus a (generation, scanline) key that lazily invalidates stale slots.
  std::vector<std::uint32_t> msa_slot_;
  std::vector<std::uint64_t> msa_key_;
  std::uint32_t generation_ = 0;

  std::uint64_t fragments_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t dedup_hits_ = 0;
};

}  // namespace dc::viz
