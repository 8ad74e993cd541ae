#include "viz/image.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace dc::viz {
namespace {

TEST(PackRgb, RoundTrips) {
  const std::uint32_t c = pack_rgb(12, 34, 56);
  EXPECT_EQ(red(c), 12);
  EXPECT_EQ(green(c), 34);
  EXPECT_EQ(blue(c), 56);
}

TEST(PackRgb, OrdersByChannels) {
  // The packed value is used as a tie-breaker; it must be a pure function
  // with no alpha noise in the high byte.
  EXPECT_EQ(pack_rgb(255, 255, 255) >> 24, 0u);
}

TEST(Image, ConstructsFilled) {
  Image img(3, 2, pack_rgb(1, 2, 3));
  EXPECT_EQ(img.width(), 3);
  EXPECT_EQ(img.height(), 2);
  EXPECT_EQ(img.at(2, 1), pack_rgb(1, 2, 3));
}

TEST(Image, SetAndGet) {
  Image img(4, 4);
  img.set(1, 2, 77);
  EXPECT_EQ(img.at(1, 2), 77u);
  EXPECT_EQ(img.at(2, 1), 0u);
}

TEST(Image, EqualityAndDigest) {
  Image a(4, 4), b(4, 4);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.digest(), b.digest());
  b.set(0, 0, 1);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Image, DigestDependsOnShape) {
  Image a(2, 8), b(8, 2);  // same pixel count, all zero
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Image, DiffCount) {
  Image a(4, 1), b(4, 1);
  b.set(0, 0, 1);
  b.set(3, 0, 2);
  EXPECT_EQ(a.diff_count(b), 2u);
  EXPECT_EQ(a.diff_count(a), 0u);
}

TEST(Image, ActivePixels) {
  Image img(4, 1, 9);
  EXPECT_EQ(img.active_pixels(9), 0u);
  img.set(2, 0, 5);
  EXPECT_EQ(img.active_pixels(9), 1u);
}

TEST(Image, SummarizeMatchesDigestAndActivePixels) {
  Image img(5, 3, 9);
  img.set(0, 0, 5);
  img.set(4, 2, 7);
  img.set(2, 1, 9);  // written, but equal to the background
  const FrameSummary s = img.summarize(9);
  EXPECT_EQ(s.digest, img.digest());
  EXPECT_EQ(s.active_pixels, img.active_pixels(9));
  EXPECT_EQ(s.active_pixels, 2u);
}

TEST(Image, FillSetsEveryPixel) {
  Image img(3, 2, 1);
  img.set(1, 1, 4);
  img.fill(6);
  EXPECT_EQ(img, Image(3, 2, 6));
}

// A moved-from image has no storage, so it must not keep a shape that
// at()/set() would index into.
TEST(Image, MoveLeavesAnEmptyImage) {
  Image a(4, 3, 2);
  const Image b(std::move(a));
  EXPECT_EQ(b, Image(4, 3, 2));
  EXPECT_EQ(a.width(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.height(), 0);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a, Image());

  Image c(2, 2, 8);
  Image d(5, 5);
  d = std::move(c);
  EXPECT_EQ(d, Image(2, 2, 8));
  EXPECT_EQ(c.width(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.height(), 0);
  EXPECT_TRUE(c.empty());
}

TEST(Image, WritePpmProducesValidHeader) {
  Image img(2, 2);
  img.set(0, 0, pack_rgb(255, 0, 0));
  const std::string path = "/tmp/dc_test_image.ppm";
  ASSERT_TRUE(img.write_ppm(path));
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  int w = 0, h = 0, maxval = 0;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, 2);
  EXPECT_EQ(h, 2);
  EXPECT_EQ(maxval, 255);
  in.get();  // single whitespace after header
  char rgb[3];
  in.read(rgb, 3);
  EXPECT_EQ(static_cast<unsigned char>(rgb[0]), 255);
  EXPECT_EQ(static_cast<unsigned char>(rgb[1]), 0);
  std::remove(path.c_str());
}

TEST(Image, WritePpmFailsOnBadPath) {
  Image img(1, 1);
  EXPECT_FALSE(img.write_ppm("/nonexistent_dir_zz/x.ppm"));
}

TEST(Image, WritePpmDetectsWriteFailure) {
  // /dev/full opens fine but every flush fails with ENOSPC — the error only
  // surfaces when buffered data is pushed out, which is exactly the case the
  // explicit flush in write_ppm exists to catch.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  Image img(64, 64);
  EXPECT_FALSE(img.write_ppm("/dev/full"));
}

}  // namespace
}  // namespace dc::viz
