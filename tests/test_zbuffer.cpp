#include "viz/zbuffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "sim/rng.hpp"

namespace dc::viz {
namespace {

TEST(ZBuffer, StartsEmpty) {
  ZBuffer zb(4, 4);
  EXPECT_EQ(zb.size(), 16u);
  EXPECT_EQ(zb.active_pixels(), 0u);
  EXPECT_FALSE(zb.active(0));
}

TEST(ZBuffer, RejectsBadDimensions) {
  EXPECT_THROW(ZBuffer(0, 4), std::invalid_argument);
  EXPECT_THROW(ZBuffer(4, -1), std::invalid_argument);
}

TEST(ZBuffer, CloserFragmentWins) {
  ZBuffer zb(2, 2);
  EXPECT_TRUE(zb.apply(0, 5.f, 111));
  EXPECT_FALSE(zb.apply(0, 7.f, 222));  // farther: rejected
  EXPECT_TRUE(zb.apply(0, 3.f, 333));   // closer: wins
  EXPECT_EQ(zb.rgba_at(0), 333u);
  EXPECT_FLOAT_EQ(zb.depth_at(0), 3.f);
  EXPECT_EQ(zb.active_pixels(), 1u);
}

TEST(ZBuffer, EqualDepthTieBreaksOnColor) {
  ZBuffer zb(1, 1);
  zb.apply(0, 5.f, 200);
  EXPECT_TRUE(zb.apply(0, 5.f, 100));   // same depth, smaller color wins
  EXPECT_FALSE(zb.apply(0, 5.f, 150));  // larger color loses
  EXPECT_EQ(zb.rgba_at(0), 100u);
}

TEST(ZBuffer, OutOfRangeIndexIgnored) {
  ZBuffer zb(2, 2);
  EXPECT_FALSE(zb.apply(100, 1.f, 1));
  EXPECT_EQ(zb.active_pixels(), 0u);
}

TEST(ZBuffer, InfiniteDepthEntriesAreNoOps) {
  // Dense z-buffer transfers include inactive pixels as (inf, 0); applying
  // them must not activate anything.
  ZBuffer zb(2, 2);
  EXPECT_FALSE(zb.apply(0, ZBuffer::kEmptyDepth, 0));
  EXPECT_EQ(zb.active_pixels(), 0u);
}

TEST(ZBuffer, ToImageUsesBackgroundForInactive) {
  ZBuffer zb(2, 1);
  zb.apply(1, 2.f, pack_rgb(10, 20, 30));
  const Image img = zb.to_image(pack_rgb(1, 1, 1));
  EXPECT_EQ(img.at(0, 0), pack_rgb(1, 1, 1));
  EXPECT_EQ(img.at(1, 0), pack_rgb(10, 20, 30));
}

TEST(ZBuffer, ClearResets) {
  ZBuffer zb(2, 2);
  zb.apply(0, 1.f, 5);
  zb.clear();
  EXPECT_EQ(zb.active_pixels(), 0u);
}

// A moved-from buffer has no storage; with its old shape, apply() would
// silently drop every fragment as out of range.
TEST(ZBuffer, MoveLeavesAnEmptyBuffer) {
  ZBuffer a(3, 2);
  a.apply(4, 1.f, 7);
  const ZBuffer b(std::move(a));
  EXPECT_EQ(b.width(), 3);
  EXPECT_EQ(b.size(), 6u);
  EXPECT_EQ(b.rgba_at(4), 7u);
  EXPECT_EQ(a.width(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.height(), 0);
  EXPECT_EQ(a.size(), 0u);

  ZBuffer c(2, 2);
  ZBuffer d(5, 5);
  d = std::move(c);
  EXPECT_EQ(d.width(), 2);
  EXPECT_EQ(d.height(), 2);
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(c.width(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.height(), 0);
  EXPECT_EQ(c.size(), 0u);
}

/// finish_frame against the path it replaces: to_image(bg), then digest()
/// and active_pixels(bg) on the image.
void expect_finish_frame_matches(int width, int height, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << width << "x" << height << " seed " << seed);
  constexpr std::uint32_t kBackground = 0x00180808u;
  constexpr float kMax = std::numeric_limits<float>::max();
  sim::Rng rng(seed);
  ZBuffer zb(width, height);
  const auto n = static_cast<std::uint32_t>(zb.size());
  // About a third of the pixels get a fragment; among them, colors equal
  // to the background (active, yet not counted) and the extreme depths.
  for (std::uint32_t k = 0; k < n / 3 + 1; ++k) {
    const auto i = static_cast<std::uint32_t>(rng.below(n));
    float depth = static_cast<float>(rng.uniform(-10.0, 10.0));
    std::uint32_t rgba = static_cast<std::uint32_t>(rng.below(1u << 24));
    switch (rng.below(8)) {
      case 0: rgba = kBackground; break;
      case 1: depth = 0.f; break;
      case 2: depth = -0.f; break;
      case 3: depth = kMax; break;
      case 4: depth = -kMax; break;
      default: break;
    }
    zb.apply(i, depth, rgba);
  }
  // The extremes land on fixed pixels too, so even 1x1 sees one of them.
  zb.apply(0, -0.f, kBackground);
  zb.apply(n - 1, kMax, 3);

  const Image img = zb.to_image(kBackground);
  const FrameSummary s = zb.finish_frame(kBackground);
  EXPECT_EQ(s.digest, img.digest());
  EXPECT_EQ(s.active_pixels, img.active_pixels(kBackground));
  EXPECT_EQ(zb.width(), width);
  EXPECT_EQ(zb.height(), height);
  ASSERT_EQ(zb.size(), static_cast<std::size_t>(n));
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(zb.depth_at(i), ZBuffer::kEmptyDepth) << i;
    ASSERT_EQ(zb.rgba_at(i), 0u) << i;
  }
}

TEST(ZBuffer, FinishFrameMatchesImageDigestAndEmptiesTheBuffer) {
  expect_finish_frame_matches(1, 1, 1);
  expect_finish_frame_matches(7, 3, 2);
  expect_finish_frame_matches(3, 64, 3);
  expect_finish_frame_matches(512, 512, 4);
  expect_finish_frame_matches(1024, 1024, 5);
}

TEST(ZBuffer, FinishFrameOfAnEmptyBufferIsAllBackground) {
  ZBuffer zb(6, 4);
  const FrameSummary s = zb.finish_frame(5);
  EXPECT_EQ(s.digest, Image(6, 4, 5).digest());
  EXPECT_EQ(s.active_pixels, 0u);
}

TEST(FragmentWins, IsAStrictTotalOrderRelation) {
  // Irreflexive and asymmetric on distinct values.
  EXPECT_FALSE(fragment_wins(1.f, 5, 1.f, 5));
  EXPECT_TRUE(fragment_wins(1.f, 4, 1.f, 5));
  EXPECT_FALSE(fragment_wins(1.f, 5, 1.f, 4));
  EXPECT_TRUE(fragment_wins(0.5f, 9, 1.f, 1));
}

/// Order-independence: applying any permutation of a fragment multiset gives
/// the same z-buffer — the invariant transparent copies rely on.
class ZBufferCommutativity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZBufferCommutativity, ShuffledApplicationMatches) {
  sim::Rng rng(GetParam());
  std::vector<PixEntry> entries;
  for (int i = 0; i < 500; ++i) {
    PixEntry e;
    e.index = static_cast<std::uint32_t>(rng.below(64));
    // Coarse depths force plenty of exact ties.
    e.depth = static_cast<float>(rng.below(8));
    e.rgba = static_cast<std::uint32_t>(rng.below(16));
    entries.push_back(e);
  }
  ZBuffer reference(8, 8);
  for (const auto& e : entries) reference.apply(e);

  for (int trial = 0; trial < 5; ++trial) {
    // Deterministic shuffle.
    for (std::size_t i = entries.size(); i > 1; --i) {
      std::swap(entries[i - 1], entries[rng.below(i)]);
    }
    ZBuffer shuffled(8, 8);
    for (const auto& e : entries) shuffled.apply(e);
    for (std::uint32_t p = 0; p < 64; ++p) {
      ASSERT_EQ(shuffled.depth_at(p), reference.depth_at(p));
      ASSERT_EQ(shuffled.rgba_at(p), reference.rgba_at(p));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZBufferCommutativity,
                         ::testing::Values(1, 2, 3, 42, 1234));

TEST(ZBuffer, MergeOfPartialsEqualsDirect) {
  // Split fragments across two "raster copies", merge their buffers:
  // identical to applying everything to one buffer.
  sim::Rng rng(99);
  std::vector<PixEntry> entries;
  for (int i = 0; i < 300; ++i) {
    entries.push_back(PixEntry{static_cast<std::uint32_t>(rng.below(16)),
                               static_cast<float>(rng.uniform(0.0, 10.0)),
                               static_cast<std::uint32_t>(rng.below(1000))});
  }
  ZBuffer direct(4, 4), a(4, 4), b(4, 4), merged(4, 4);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    direct.apply(entries[i]);
    (i % 2 ? a : b).apply(entries[i]);
  }
  for (std::uint32_t p = 0; p < 16; ++p) {
    merged.apply(p, a.depth_at(p), a.rgba_at(p));
    merged.apply(p, b.depth_at(p), b.rgba_at(p));
  }
  for (std::uint32_t p = 0; p < 16; ++p) {
    ASSERT_EQ(merged.depth_at(p), direct.depth_at(p));
    ASSERT_EQ(merged.rgba_at(p), direct.rgba_at(p));
  }
}

}  // namespace
}  // namespace dc::viz
