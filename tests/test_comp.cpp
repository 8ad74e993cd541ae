// Unit tests for the tile compositor subsystem (src/comp/): tile geometry,
// the deterministic tile->owner map and its dead-owner probe, the Image
// sub-rect helpers, the producer-side fragment framing (FragRouter /
// for_each_frame) and the gather filter, driven through a stub
// FilterContext.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "comp/filters.hpp"
#include "comp/frag.hpp"
#include "comp/tile_map.hpp"
#include "viz/image.hpp"
#include "viz/zbuffer.hpp"

namespace dc {
namespace {

// ---------------------------------------------------------------------------
// TileLayout geometry
// ---------------------------------------------------------------------------

TEST(TileLayout, GridAndEdgeClipping) {
  const comp::TileLayout l{70, 50, 32};
  EXPECT_EQ(l.tiles_x(), 3);
  EXPECT_EQ(l.tiles_y(), 2);
  EXPECT_EQ(l.num_tiles(), 6);

  // Interior tile.
  EXPECT_EQ(l.tile_w(0), 32);
  EXPECT_EQ(l.tile_h(0), 32);
  // Right edge column is clipped to 70 - 64 = 6 px wide.
  EXPECT_EQ(l.tile_w(2), 6);
  EXPECT_EQ(l.tile_h(2), 32);
  // Bottom edge row is clipped to 50 - 32 = 18 px tall.
  EXPECT_EQ(l.tile_w(3), 32);
  EXPECT_EQ(l.tile_h(3), 18);
  // Corner tile is clipped both ways.
  EXPECT_EQ(l.tile_w(5), 6);
  EXPECT_EQ(l.tile_h(5), 18);
  EXPECT_EQ(l.tile_pixels(5), 6u * 18u);
}

TEST(TileLayout, IndexRoundTripCoversEveryPixel) {
  const comp::TileLayout l{70, 50, 32};
  std::vector<int> seen(static_cast<std::size_t>(l.width) * l.height, 0);
  for (int t = 0; t < l.num_tiles(); ++t) {
    for (std::uint32_t local = 0; local < l.tile_pixels(t); ++local) {
      const std::uint32_t g = l.global_index(t, local);
      ASSERT_LT(g, seen.size());
      ++seen[g];
      EXPECT_EQ(l.tile_of(g), t);
      EXPECT_EQ(l.local_index(t, g), local);
    }
  }
  // The tiles partition the frame: every pixel in exactly one tile.
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int n) { return n == 1; }));
}

TEST(TileLayout, ExactFitHasNoClippedTiles) {
  const comp::TileLayout l{64, 64, 16};
  EXPECT_EQ(l.num_tiles(), 16);
  for (int t = 0; t < l.num_tiles(); ++t) {
    EXPECT_EQ(l.tile_w(t), 16);
    EXPECT_EQ(l.tile_h(t), 16);
  }
}

// ---------------------------------------------------------------------------
// TileMap: determinism, dead-owner probe, re-ownership
// ---------------------------------------------------------------------------

TEST(TileMap, DeterministicAcrossInstances) {
  const comp::TileLayout l{128, 128, 16};
  const comp::TileMap a(l, 4, 0x7d0u);
  const comp::TileMap b(l, 4, 0x7d0u);
  for (int t = 0; t < l.num_tiles(); ++t) {
    EXPECT_EQ(a.base_owner(t), b.base_owner(t));
    EXPECT_EQ(a.owner(t), a.base_owner(t));
  }
}

TEST(TileMap, SeedChangesAssignment) {
  const comp::TileLayout l{128, 128, 16};
  const comp::TileMap a(l, 4, 1);
  const comp::TileMap b(l, 4, 2);
  int diff = 0;
  for (int t = 0; t < l.num_tiles(); ++t) {
    if (a.base_owner(t) != b.base_owner(t)) ++diff;
  }
  EXPECT_GT(diff, 0);
}

TEST(TileMap, AssignmentIsRoughlyBalanced) {
  const comp::TileLayout l{256, 256, 16};  // 256 tiles
  const comp::TileMap m(l, 4, 0x7d0u);
  std::vector<int> per_owner(4, 0);
  for (int t = 0; t < l.num_tiles(); ++t) ++per_owner[m.base_owner(t)];
  for (int n : per_owner) {
    // A seed-stable hash over 256 tiles should not starve any of 4 owners.
    EXPECT_GT(n, 256 / 4 / 2) << "owner starved";
    EXPECT_LT(n, 256 / 4 * 2) << "owner overloaded";
  }
}

TEST(TileMap, DeadOwnerProbeMatchesBruteForce) {
  const comp::TileLayout l{96, 96, 16};
  const int owners = 5;
  const comp::TileMap m(l, owners, 42);
  for (std::uint64_t mask = 0; mask < (1u << owners); ++mask) {
    for (int t = 0; t < l.num_tiles(); ++t) {
      // Reference: first live owner in base, base+1, ... mod n.
      int want = -1;
      for (int i = 0; i < owners; ++i) {
        const int cand = (m.base_owner(t) + i) % owners;
        if ((mask >> cand) & 1u) continue;
        want = cand;
        break;
      }
      EXPECT_EQ(m.owner(t, mask), want) << "tile " << t << " mask " << mask;
    }
  }
}

TEST(TileMap, ReownershipMovesOnlyTheVictimsTiles) {
  const comp::TileLayout l{128, 128, 32};
  const comp::TileMap m(l, 4, 0x7d0u);
  const int victim = 2;
  const std::uint64_t mask = 1u << victim;

  const std::vector<int> victim_tiles = m.tiles_of(victim);
  EXPECT_FALSE(victim_tiles.empty());
  for (int t = 0; t < l.num_tiles(); ++t) {
    const bool was_victims =
        std::binary_search(victim_tiles.begin(), victim_tiles.end(), t);
    if (was_victims) {
      EXPECT_NE(m.owner(t, mask), victim);
      EXPECT_EQ(m.owner(t, mask), (victim + 1) % 4);  // probe is +1 mod n
    } else {
      EXPECT_EQ(m.owner(t, mask), m.owner(t, 0)) << "surviving tile moved";
    }
  }

  // tiles_of under the mask partitions all tiles over the survivors.
  std::set<int> covered;
  for (int o = 0; o < 4; ++o) {
    if (o == victim) {
      EXPECT_TRUE(m.tiles_of(o, mask).empty());
      continue;
    }
    for (int t : m.tiles_of(o, mask)) {
      EXPECT_TRUE(covered.insert(t).second) << "tile owned twice";
    }
  }
  EXPECT_EQ(static_cast<int>(covered.size()), l.num_tiles());
}

TEST(TileMap, AllDeadReturnsMinusOne) {
  const comp::TileLayout l{32, 32, 16};
  const comp::TileMap m(l, 3, 7);
  EXPECT_EQ(m.owner(0, 0b111), -1);
}

TEST(TileMap, RejectsBadArguments) {
  const comp::TileLayout l{32, 32, 16};
  EXPECT_THROW(comp::TileMap(l, 0, 1), std::invalid_argument);
  EXPECT_THROW(comp::TileMap(l, 65, 1), std::invalid_argument);
  EXPECT_THROW(comp::TileMap(comp::TileLayout{0, 32, 16}, 2, 1),
               std::invalid_argument);
  EXPECT_THROW(comp::TileMap(comp::TileLayout{32, 32, 0}, 2, 1),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Image sub-rect / blit helpers (satellite b)
// ---------------------------------------------------------------------------

TEST(ImageRect, SubRectBlitRoundTrip) {
  viz::Image img(16, 12);
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 16; ++x) {
      img.set(x, y, static_cast<std::uint32_t>(y * 100 + x));
    }
  }
  const viz::Image block = img.sub_rect(5, 3, 7, 6);
  ASSERT_EQ(block.width(), 7);
  ASSERT_EQ(block.height(), 6);
  for (int y = 0; y < 6; ++y) {
    for (int x = 0; x < 7; ++x) {
      EXPECT_EQ(block.at(x, y), img.at(5 + x, 3 + y));
    }
  }

  viz::Image out(16, 12, 0xdeadu);
  out.blit(5, 3, block);
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 16; ++x) {
      const bool inside = x >= 5 && x < 12 && y >= 3 && y < 9;
      EXPECT_EQ(out.at(x, y), inside ? img.at(x, y) : 0xdeadu);
    }
  }
}

TEST(ImageRect, SpanBlitMatchesImageBlit) {
  std::vector<std::uint32_t> block(3 * 2);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::uint32_t>(1000 + i);
  }
  viz::Image a(8, 8, 1), b(8, 8, 1);
  a.blit(2, 4, 3, 2, block);

  viz::Image src(3, 2);
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 3; ++x) src.set(x, y, block[y * 3 + x]);
  }
  b.blit(2, 4, src);
  EXPECT_EQ(a, b);
}

TEST(ImageRect, FullFrameBlitIsIdentity) {
  viz::Image img(6, 5);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 6; ++x) img.set(x, y, static_cast<std::uint32_t>(x ^ y));
  }
  viz::Image out(6, 5);
  out.blit(0, 0, img.sub_rect(0, 0, 6, 5));
  EXPECT_EQ(out, img);
}

// ---------------------------------------------------------------------------
// Fragment framing: FragRouter -> for_each_frame round trip
// ---------------------------------------------------------------------------

/// Minimal FilterContext: hands out fixed-size buffers and captures writes.
class StubContext final : public core::FilterContext {
 public:
  explicit StubContext(std::size_t buffer_bytes)
      : buffer_bytes_(buffer_bytes) {}

  [[nodiscard]] int instance_index() const override { return 3; }
  [[nodiscard]] int num_instances() const override { return 4; }
  [[nodiscard]] int copy_in_host() const override { return 0; }
  [[nodiscard]] int copies_on_host() const override { return 1; }
  [[nodiscard]] int host() const override { return 0; }
  [[nodiscard]] const std::string& host_class() const override {
    static const std::string cls = "stub";
    return cls;
  }
  [[nodiscard]] int uow_index() const override { return 0; }
  [[nodiscard]] sim::SimTime now() const override { return 0.0; }
  [[nodiscard]] sim::Rng& rng() override { return rng_; }
  void charge(double) override {}
  void read_disk(int, std::uint64_t) override {}
  void write(int port, core::Buffer buf) override {
    ASSERT_EQ(port, 0);
    written.push_back(std::move(buf));
  }
  [[nodiscard]] core::Buffer make_buffer(int) const override {
    return core::Buffer(buffer_bytes_);
  }
  [[nodiscard]] int num_input_ports() const override { return 0; }
  [[nodiscard]] int num_output_ports() const override { return 1; }
  [[nodiscard]] std::size_t buffer_bytes(int) const override {
    return buffer_bytes_;
  }

  std::vector<core::Buffer> written;

 private:
  std::size_t buffer_bytes_;
  sim::Rng rng_;
};

viz::PixEntry entry(std::uint32_t index, float depth, std::uint32_t rgba) {
  viz::PixEntry e;
  e.index = index;
  e.depth = depth;
  e.rgba = rgba;
  return e;
}

TEST(FragRouter, RoundTripGroupsByTileAndKeysByBaseOwner) {
  const comp::TileLayout l{64, 64, 32};  // 4 tiles
  const comp::TileMap map(l, 2, 0x7d0u);
  StubContext ctx(4096);
  comp::FragRouter router(&map, ctx.instance_index());

  // One entry in every tile, plus a duplicate pixel in tile 0.
  std::vector<viz::PixEntry> batch;
  for (int t = 0; t < l.num_tiles(); ++t) {
    batch.push_back(entry(l.global_index(t, 5), 0.25f * (t + 1), 0x10u + t));
  }
  batch.push_back(entry(l.global_index(0, 6), 0.5f, 0x99u));
  router.add(ctx, batch.data(), batch.size());
  router.finish(ctx);

  ASSERT_FALSE(ctx.written.empty());

  std::map<int, std::int64_t> data_counts;      // tile -> entries seen
  std::map<int, std::int64_t> summary_counts;   // tile -> summed counts
  int summary_frames = 0;
  for (const core::Buffer& buf : ctx.written) {
    comp::for_each_frame(buf, [&](const comp::FragHeader& h,
                                  const std::byte* payload) {
      EXPECT_EQ(h.producer, ctx.instance_index());
      if (h.kind == static_cast<std::int32_t>(comp::FragKind::kData)) {
        // Data frames ride buffers keyed to the tile's base owner.
        EXPECT_EQ(buf.route_key(), map.base_owner(h.tile));
        for (int i = 0; i < h.entries; ++i) {
          viz::PixEntry e;
          std::memcpy(&e, payload + i * sizeof(viz::PixEntry), sizeof(e));
          EXPECT_EQ(l.tile_of(e.index), h.tile);
        }
        data_counts[h.tile] += h.entries;
      } else {
        ASSERT_EQ(h.kind, static_cast<std::int32_t>(comp::FragKind::kSummary));
        EXPECT_EQ(h.tile, -1);
        ++summary_frames;
        for (int i = 0; i < h.entries; ++i) {
          comp::SummaryRecord r;
          std::memcpy(&r, payload + i * sizeof(r), sizeof(r));
          // Summaries chase their tiles' fragments to the same owner.
          EXPECT_EQ(buf.route_key(), map.base_owner(r.tile));
          summary_counts[r.tile] += r.count;
        }
      }
    });
  }

  // Every tile got exactly its entries, and a summary record (zero counts
  // included) for EVERY tile, not just the touched ones.
  EXPECT_EQ(data_counts[0], 2);
  for (int t = 1; t < l.num_tiles(); ++t) EXPECT_EQ(data_counts[t], 1);
  ASSERT_EQ(static_cast<int>(summary_counts.size()), l.num_tiles());
  for (int t = 0; t < l.num_tiles(); ++t) {
    EXPECT_EQ(summary_counts[t], data_counts[t]);
  }
  EXPECT_GE(summary_frames, map.num_owners());
}

TEST(FragRouter, SplitsFramesAcrossSmallBuffers) {
  const comp::TileLayout l{32, 32, 32};  // one tile
  const comp::TileMap map(l, 1, 1);
  // Room for the header plus two entries per buffer: 25 entries must split
  // across many frames/buffers without losing any.
  StubContext ctx(sizeof(comp::FragHeader) + 2 * sizeof(viz::PixEntry));
  comp::FragRouter router(&map, 0);

  std::vector<viz::PixEntry> batch;
  for (std::uint32_t i = 0; i < 25; ++i) {
    batch.push_back(entry(i, 1.0f + i, i));
  }
  router.add(ctx, batch.data(), batch.size());
  router.finish(ctx);

  std::int64_t data = 0, summary = -1;
  std::set<std::uint32_t> indices;
  for (const core::Buffer& buf : ctx.written) {
    comp::for_each_frame(buf, [&](const comp::FragHeader& h,
                                  const std::byte* payload) {
      if (h.kind == static_cast<std::int32_t>(comp::FragKind::kData)) {
        EXPECT_LE(h.entries, 2);
        for (int i = 0; i < h.entries; ++i) {
          viz::PixEntry e;
          std::memcpy(&e, payload + i * sizeof(e), sizeof(e));
          indices.insert(e.index);
        }
        data += h.entries;
      } else {
        comp::SummaryRecord r;
        std::memcpy(&r, payload, sizeof(r));
        summary = r.count;
      }
    });
  }
  EXPECT_EQ(data, 25);
  EXPECT_EQ(summary, 25);
  EXPECT_EQ(indices.size(), 25u);  // no entry lost or duplicated
}

TEST(FragRouter, FinishWithoutTrafficStillSummarizesEveryTile) {
  const comp::TileLayout l{64, 64, 16};
  const comp::TileMap map(l, 3, 9);
  StubContext ctx(4096);
  comp::FragRouter router(&map, 1);
  router.finish(ctx);

  std::map<int, std::int64_t> summary_counts;
  for (const core::Buffer& buf : ctx.written) {
    comp::for_each_frame(buf, [&](const comp::FragHeader& h,
                                  const std::byte* payload) {
      ASSERT_EQ(h.kind, static_cast<std::int32_t>(comp::FragKind::kSummary));
      for (int i = 0; i < h.entries; ++i) {
        comp::SummaryRecord r;
        std::memcpy(&r, payload + i * sizeof(r), sizeof(r));
        EXPECT_EQ(r.count, 0);
        summary_counts[r.tile] += 1;
      }
    });
  }
  // A silent producer still closes the ledger: one zero-count record per
  // tile, each exactly once.
  ASSERT_EQ(static_cast<int>(summary_counts.size()), l.num_tiles());
  for (const auto& [tile, n] : summary_counts) {
    EXPECT_EQ(n, 1) << "tile " << tile;
  }
}

TEST(ForEachFrame, RejectsTruncatedBuffers) {
  comp::FragHeader h;
  h.tile = 0;
  h.producer = 0;
  h.entries = 4;  // claims more payload than present
  h.kind = static_cast<std::int32_t>(comp::FragKind::kData);
  core::Buffer buf(sizeof(h));
  ASSERT_TRUE(buf.push(h));
  EXPECT_THROW(
      comp::for_each_frame(buf, [](const comp::FragHeader&, const std::byte*) {}),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// TileGatherFilter
// ---------------------------------------------------------------------------

/// Appends one owner -> gather frame to `buf`.
template <typename T>
void push_frame(core::Buffer& buf, int tile, comp::FragKind kind,
                const std::vector<T>& records) {
  comp::FragHeader h;
  h.tile = tile;
  h.producer = 0;
  h.entries = static_cast<std::int32_t>(records.size());
  h.kind = static_cast<std::int32_t>(kind);
  ASSERT_TRUE(buf.push(h));
  ASSERT_TRUE(buf.append(std::as_bytes(std::span<const T>(records))));
}

/// A dense kComplete block for `tile`, every pixel `rgba`.
void push_complete(core::Buffer& buf, const comp::TileLayout& l, int tile,
                   std::uint32_t rgba) {
  push_frame(buf, tile, comp::FragKind::kComplete,
             std::vector<std::uint32_t>(
                 static_cast<std::size_t>(l.tile_pixels(tile)), rgba));
}

/// One gather UOW: a fresh G (filters are built per UOW) over one buffer.
void gather_frame(const std::shared_ptr<const comp::TileMap>& map,
                  const viz::VizWorkload& w,
                  const std::shared_ptr<viz::RenderSink>& sink,
                  const std::shared_ptr<comp::CompStats>& stats,
                  const core::Buffer& buf) {
  StubContext ctx(4096);
  comp::TileGatherFilter g(map, w, sink, stats);
  g.init(ctx);
  g.process_buffer(ctx, 0, buf);
  g.process_eow(ctx);
}

// Frames share the sink's image storage: each must start from the
// background, and a partial tile must still backfill from the overlay that
// only a kPartial frame builds.
TEST(TileGather, ReusedFrameStartsCleanAndPartialTilesBackfill) {
  const comp::TileLayout l{64, 64, 32};  // 4 tiles
  auto map = std::make_shared<const comp::TileMap>(l, 2, 1);
  viz::VizWorkload w;
  w.width = l.width;
  w.height = l.height;
  auto sink = std::make_shared<viz::RenderSink>();
  sink->keep_images = false;
  auto stats = std::make_shared<comp::CompStats>();
  const std::uint32_t bg = sink->background;

  // Frame 1: tiles 0-2 complete, tile 3 partial with two entries.
  viz::Image want1(l.width, l.height, bg);
  core::Buffer b1(1 << 16);
  for (int t = 0; t < 3; ++t) {
    push_complete(b1, l, t, 0x10u + static_cast<std::uint32_t>(t));
    want1.blit(l.x0(t), l.y0(t),
               viz::Image(l.tile_w(t), l.tile_h(t),
                          0x10u + static_cast<std::uint32_t>(t)));
  }
  const std::uint32_t p0 = l.global_index(3, 0);
  const std::uint32_t p1 = l.global_index(3, 33);
  push_frame(b1, 3, comp::FragKind::kPartial,
             std::vector<viz::PixEntry>{entry(p0, 2.f, 0x77u),
                                        entry(p1, 1.f, 0x88u),
                                        entry(p0, 1.f, 0x66u)});
  want1.set(static_cast<int>(p0) % l.width, static_cast<int>(p0) / l.width, 0x66u);
  want1.set(static_cast<int>(p1) % l.width, static_cast<int>(p1) / l.width, 0x88u);
  gather_frame(map, w, sink, stats, b1);
  ASSERT_EQ(sink->digests.size(), 1u);
  EXPECT_EQ(sink->digests[0], want1.digest());
  EXPECT_EQ(stats->last_partial_tiles, std::vector<int>{3});

  // Frame 2: only tile 1 arrives; nothing else may show through from frame
  // 1, and with no partial frame every other tile stays background.
  viz::Image want2(l.width, l.height, bg);
  core::Buffer b2(1 << 16);
  push_complete(b2, l, 1, 0x21u);
  want2.blit(l.x0(1), l.y0(1), viz::Image(l.tile_w(1), l.tile_h(1), 0x21u));
  gather_frame(map, w, sink, stats, b2);
  ASSERT_EQ(sink->digests.size(), 2u);
  EXPECT_EQ(sink->digests[1], want2.digest());
  EXPECT_EQ(sink->active_pixel_counts[1],
            static_cast<std::size_t>(l.tile_pixels(1)));
  EXPECT_EQ(stats->last_partial_tiles, (std::vector<int>{0, 2, 3}));
}

}  // namespace
}  // namespace dc
