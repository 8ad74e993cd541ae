#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "comp/frag.hpp"
#include "comp/tile_map.hpp"
#include "core/filter.hpp"
#include "viz/filters.hpp"
#include "viz/zbuffer.hpp"

namespace dc::comp {

/// Cross-copy compositor counters, shared by every tile-owner and gather
/// copy of one app instance (cumulative across UOWs; in a distributed run
/// each rank sees its local share). The scaling bench reads these for its
/// fragments/s and gather-byte metrics.
struct CompStats {
  std::atomic<std::uint64_t> fragments_received{0};  ///< data entries at owners
  std::atomic<std::uint64_t> frag_bytes{0};     ///< producer->owner payload
  std::atomic<std::uint64_t> gather_bytes{0};   ///< owner->gather payload
  std::atomic<std::uint64_t> tiles_complete{0};
  std::atomic<std::uint64_t> tiles_partial{0};
  std::mutex mu;
  /// Tiles the gather filter finished WITHOUT a complete block in the most
  /// recent UOW (empty on a clean run). Guarded by `mu`.
  std::vector<int> last_partial_tiles;
};

// ---------------------------------------------------------------------------
// Producers: the standard read/extract/raster filters with the HSR engine's
// output diverted into a FragRouter (content-addressed tile routing on
// output port 0) instead of the engine's plain port writes.
// ---------------------------------------------------------------------------

/// Ra for the tiled compositor (RE-Ra-TM-G pipeline).
class TiledRasterFilter final : public core::Filter {
 public:
  TiledRasterFilter(viz::HsrAlgorithm alg, viz::VizWorkload w,
                    std::shared_ptr<const TileMap> map)
      : inner_(alg, std::move(w)), map_(std::move(map)) {}
  void init(core::FilterContext& ctx) override;
  void process_buffer(core::FilterContext& ctx, int port,
                      const core::Buffer& buf) override {
    inner_.process_buffer(ctx, port, buf);
  }
  void process_eow(core::FilterContext& ctx) override {
    inner_.process_eow(ctx);  // flushes the HSR tail through the router
    router_->finish(ctx);
  }

 private:
  viz::RasterFilter inner_;
  std::shared_ptr<const TileMap> map_;
  std::optional<FragRouter> router_;
};

/// ERa for the tiled compositor (R-ERa-TM-G pipeline).
class TiledExtractRasterFilter final : public core::Filter {
 public:
  TiledExtractRasterFilter(viz::HsrAlgorithm alg, viz::VizWorkload w,
                           std::shared_ptr<const TileMap> map)
      : inner_(alg, std::move(w)), map_(std::move(map)) {}
  void init(core::FilterContext& ctx) override;
  void process_buffer(core::FilterContext& ctx, int port,
                      const core::Buffer& buf) override {
    inner_.process_buffer(ctx, port, buf);
  }
  void process_eow(core::FilterContext& ctx) override {
    inner_.process_eow(ctx);
    router_->finish(ctx);
  }

 private:
  viz::ExtractRasterFilter inner_;
  std::shared_ptr<const TileMap> map_;
  std::optional<FragRouter> router_;
};

/// RERa for the tiled compositor (RERa-TM-G pipeline).
class TiledReadExtractRasterFilter final : public core::SourceFilter {
 public:
  TiledReadExtractRasterFilter(viz::HsrAlgorithm alg, viz::VizWorkload w,
                               std::shared_ptr<const TileMap> map)
      : inner_(alg, std::move(w)), map_(std::move(map)) {}
  void init(core::FilterContext& ctx) override;
  bool step(core::FilterContext& ctx) override { return inner_.step(ctx); }
  void process_eow(core::FilterContext& ctx) override {
    inner_.process_eow(ctx);
    router_->finish(ctx);
  }

 private:
  viz::ReadExtractRasterFilter inner_;
  std::shared_ptr<const TileMap> map_;
  std::optional<FragRouter> router_;
};

// ---------------------------------------------------------------------------
// TM: per-host tile owner
// ---------------------------------------------------------------------------

/// TM: one transparent copy per owner host, compositing its tiles in
/// parallel with its peers. Keeps one small z-buffer per tile it receives
/// fragments for, plus the completion ledger: fragments expected (from the
/// producers' end-of-work summaries) vs received, and which producers have
/// reported. At end of work it emits, per tile in ascending id order, either
/// a dense kComplete color block (ledger closed) or a sparse kPartial entry
/// list (something is missing — a dead producer, or fragments a dead owner
/// consumed before failover).
class TileOwnerMergeFilter final : public core::Filter {
 public:
  TileOwnerMergeFilter(std::shared_ptr<const TileMap> map, viz::VizWorkload w,
                       int num_producers, std::uint32_t background,
                       std::shared_ptr<CompStats> stats)
      : map_(std::move(map)),
        w_(std::move(w)),
        num_producers_(num_producers),
        background_(background),
        stats_(std::move(stats)) {}

  void process_buffer(core::FilterContext& ctx, int port,
                      const core::Buffer& buf) override;
  void process_eow(core::FilterContext& ctx) override;

 private:
  struct TileState {
    viz::ZBuffer zb;  ///< tile-local (tile_w x tile_h), lazily sized
    std::int64_t received = 0;
    std::int64_t expected = 0;
    int producers_reported = 0;
    std::vector<char> reported;  ///< per producer, dedupes summaries
  };

  TileState& state(int tile);
  void emit(core::FilterContext& ctx, core::Buffer& out, const FragHeader& h,
            const std::byte* payload, std::size_t payload_bytes);

  std::shared_ptr<const TileMap> map_;
  viz::VizWorkload w_;
  int num_producers_ = 0;
  std::uint32_t background_ = 0;
  std::shared_ptr<CompStats> stats_;
  std::map<int, TileState> tiles_;  ///< ordered: deterministic EOW emission
};

// ---------------------------------------------------------------------------
// G: final gather
// ---------------------------------------------------------------------------

/// G: single copy on the gather host. Blits dense complete tiles straight
/// into the frame (first writer wins — after a failover two owners can both
/// believe they own a tile) and folds sparse partial entries through a
/// full-frame overlay z-buffer that backfills every tile no owner finished.
/// The frame is the sink's spare image (RenderSink::take_image); the overlay
/// is built only when a partial tile arrives.
class TileGatherFilter final : public core::Filter {
 public:
  TileGatherFilter(std::shared_ptr<const TileMap> map, viz::VizWorkload w,
                   std::shared_ptr<viz::RenderSink> sink,
                   std::shared_ptr<CompStats> stats)
      : map_(std::move(map)),
        w_(std::move(w)),
        sink_(std::move(sink)),
        stats_(std::move(stats)) {}

  void init(core::FilterContext& ctx) override;
  void process_buffer(core::FilterContext& ctx, int port,
                      const core::Buffer& buf) override;
  void process_eow(core::FilterContext& ctx) override;

 private:
  std::shared_ptr<const TileMap> map_;
  viz::VizWorkload w_;
  std::shared_ptr<viz::RenderSink> sink_;
  std::shared_ptr<CompStats> stats_;
  viz::Image frame_;
  viz::ZBuffer overlay_;
  std::vector<char> complete_;
  std::vector<int> partial_tiles_;
};

}  // namespace dc::comp
