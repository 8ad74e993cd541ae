#include "viz/image.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>

namespace dc::viz {

Image::Image(int width, int height, std::uint32_t fill)
    : width_(width),
      height_(height),
      pixels_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
              fill) {}

std::uint64_t Image::digest() const { return summarize(0).digest; }

FrameSummary Image::summarize(std::uint32_t background) const {
  Fnv1a f;
  f.mix(static_cast<std::uint64_t>(width_));
  f.mix(static_cast<std::uint64_t>(height_));
  std::size_t active = 0;
  for (std::uint32_t p : pixels_) {
    f.mix(p);
    active += p != background ? 1 : 0;
  }
  return FrameSummary{f.h, active};
}

void Image::fill(std::uint32_t rgba) {
  std::fill(pixels_.begin(), pixels_.end(), rgba);
}

std::size_t Image::diff_count(const Image& o) const {
  if (width_ != o.width_ || height_ != o.height_) {
    return pixels_.size() + o.pixels_.size();
  }
  std::size_t diff = 0;
  for (std::size_t i = 0; i < pixels_.size(); ++i) {
    if (pixels_[i] != o.pixels_[i]) ++diff;
  }
  return diff;
}

std::size_t Image::active_pixels(std::uint32_t background) const {
  std::size_t n = 0;
  for (std::uint32_t p : pixels_) {
    if (p != background) ++n;
  }
  return n;
}

void Image::check_rect(int x0, int y0, int w, int h) const {
  assert(w >= 0 && h >= 0);
  assert(x0 >= 0 && y0 >= 0);
  assert(x0 + w <= width_ && y0 + h <= height_);
  (void)x0;
  (void)y0;
  (void)w;
  (void)h;
}

void Image::blit(int x0, int y0, const Image& src) {
  blit(x0, y0, src.width_, src.height_, src.pixels_);
}

void Image::blit(int x0, int y0, int w, int h,
                 std::span<const std::uint32_t> src) {
  check_rect(x0, y0, w, h);
  assert(src.size() == static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
  for (int y = 0; y < h; ++y) {
    const std::uint32_t* row = src.data() + static_cast<std::size_t>(y) * w;
    std::uint32_t* dst = pixels_.data() +
                         static_cast<std::size_t>(y0 + y) * width_ + x0;
    std::copy(row, row + w, dst);
  }
}

Image Image::sub_rect(int x0, int y0, int w, int h) const {
  check_rect(x0, y0, w, h);
  Image out(w, h);
  for (int y = 0; y < h; ++y) {
    const std::uint32_t* row =
        pixels_.data() + static_cast<std::size_t>(y0 + y) * width_ + x0;
    std::copy(row, row + w,
              out.pixels_.data() + static_cast<std::size_t>(y) * w);
  }
  return out;
}

bool Image::write_ppm(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "P6\n" << width_ << ' ' << height_ << "\n255\n";
  for (std::uint32_t p : pixels_) {
    const char rgb[3] = {static_cast<char>(red(p)), static_cast<char>(green(p)),
                         static_cast<char>(blue(p))};
    out.write(rgb, 3);
  }
  // Flush before checking: a write error surfacing only at close (ENOSPC on
  // buffered data, /dev/full) would otherwise escape the stream-state check.
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace dc::viz
