#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/filter.hpp"
#include "data/store.hpp"
#include "data/synth.hpp"
#include "io/reader.hpp"
#include "viz/active_pixel.hpp"
#include "viz/camera.hpp"
#include "viz/cost.hpp"
#include "viz/image.hpp"
#include "viz/marching_cubes.hpp"
#include "viz/zbuffer.hpp"

namespace dc::viz {

/// Hidden-surface-removal algorithm of the Raster filter (paper Sec. 3.1.2).
enum class HsrAlgorithm {
  kZBuffer,     ///< dense z-buffer, flushed only at end of work
  kActivePixel  ///< sparse WPA/MSA, pipelined flushes
};

[[nodiscard]] const char* to_string(HsrAlgorithm a);

/// Everything the isosurface filters need to know about the rendering job.
/// The same structure parameterizes the standalone filters and the fused
/// (RE / ERa / RERa) variants.
struct VizWorkload {
  const data::DatasetStore* store = nullptr;
  const data::PlumeField* field = nullptr;
  /// When set, the Read-side filters stream chunk payloads from the on-disk
  /// chunk store (fully out-of-core) instead of synthesizing them from
  /// `field`. The reader is shared by every filter copy — it is thread-safe,
  /// and the store must cover timesteps [base_timestep, base_timestep+uows).
  io::ChunkReader* reader = nullptr;
  /// Readahead of each Read-side copy's io::ReadStream: requests kept queued
  /// or in service per disk the copy reads from. 0 = demand reads only.
  int prefetch_depth = 2;
  float iso_value = 1.0f;
  float field_max = 2.0f;  ///< normalizes iso_value for coloring
  int width = 512;
  int height = 512;
  int base_timestep = 0;  ///< UOW u renders timestep base_timestep + u
  bool vary_view_per_uow = false;
  CostModel cost;

  [[nodiscard]] Camera make_camera(int uow) const;
  [[nodiscard]] float timestep(int uow) const {
    return static_cast<float>(base_timestep + uow);
  }
};

/// Header of one voxel block on the R -> E stream: a sub-box of cells plus
/// its (nx+1)(ny+1)(nz+1) grid-point samples, packed back to back.
struct BlockHeader {
  std::int32_t x0 = 0, y0 = 0, z0 = 0;  ///< global cell origin
  std::int32_t nx = 0, ny = 0, nz = 0;  ///< cells in this block
  [[nodiscard]] std::size_t sample_count() const {
    return static_cast<std::size_t>(nx + 1) * static_cast<std::size_t>(ny + 1) *
           static_cast<std::size_t>(nz + 1);
  }
  [[nodiscard]] std::size_t packed_bytes() const {
    return sizeof(BlockHeader) + sample_count() * sizeof(float);
  }
};
static_assert(sizeof(BlockHeader) == 24);

/// Parses all blocks in a buffer, invoking
/// `fn(const BlockHeader&, const float* samples)` per block.
void for_each_block(const core::Buffer& buf,
                    const std::function<void(const BlockHeader&, const float*)>& fn);

/// Collector for final images across UOWs, shared between the Merge filter
/// copies (there is exactly one) and the caller.
struct RenderSink {
  std::uint32_t background = pack_rgb(8, 8, 24);
  bool keep_images = true;  ///< false: keep digests only (saves memory)
  std::vector<Image> images;
  std::vector<std::uint64_t> digests;
  std::vector<std::size_t> active_pixel_counts;

  void push(Image&& img);
};

/// One Read-side copy's work for the current UOW: its share of the host's
/// chunks in plan order and, out of core, the io::ReadStream fetching them.
struct ChunkPlan {
  std::vector<data::ChunkRef> chunks;
  std::size_t next = 0;
  io::ReadStream stream;

  /// Plans this copy's chunks for ctx's UOW and starts the readahead.
  void open(const VizWorkload& w, const core::FilterContext& ctx);
  [[nodiscard]] bool done() const { return next >= chunks.size(); }
};

/// One chunk's grid-point samples (cells + one-point halo, x-fastest).
struct ChunkSamples {
  const float* data = nullptr;
  io::ReadStream::Block block;  ///< out of core: the block `data` points into
  double io_wait_s = 0.0;       ///< wall seconds blocked on I/O
};

// ---------------------------------------------------------------------------
// Standalone filters: R, E, Ra, M
// ---------------------------------------------------------------------------

/// R: reads host-local chunks from disk and streams voxel blocks. Chunks
/// resident on the host are partitioned among the co-located copies.
class ReadFilter final : public core::SourceFilter {
 public:
  explicit ReadFilter(VizWorkload w) : w_(w) {}
  void init(core::FilterContext& ctx) override;
  bool step(core::FilterContext& ctx) override;
  void process_eow(core::FilterContext& ctx) override;

 private:
  void emit_chunk(core::FilterContext& ctx, const data::ChunkRef& ref);

  VizWorkload w_;
  ChunkPlan plan_;
  core::Buffer out_;
  std::vector<float> scratch_;
};

/// E: marching cubes over incoming voxel blocks, streaming triangles.
class ExtractFilter final : public core::Filter {
 public:
  explicit ExtractFilter(VizWorkload w) : w_(w) {}
  void process_buffer(core::FilterContext& ctx, int port,
                      const core::Buffer& buf) override;

 private:
  VizWorkload w_;
  std::vector<Triangle> tris_;
};

/// Shared HSR engine used by Ra and by the fused ERa / RERa filters:
/// rasterizes shaded triangles and emits PixEntry buffers on output port 0
/// according to the selected algorithm.
class HsrEngine {
 public:
  HsrEngine(HsrAlgorithm alg, const VizWorkload& w) : alg_(alg), w_(w) {}

  /// Image-partitioned output (the paper's future-work hybrid): entries are
  /// routed to `stripes` output ports by horizontal screen stripe, so each
  /// downstream merge copy owns a disjoint image region. Default: one port.
  void set_partitioning(int stripes);

  void init(core::FilterContext& ctx);
  void raster(core::FilterContext& ctx, const Triangle* tris, std::size_t n);
  /// Active Pixel flushes its partial WPA at input-buffer boundaries.
  void input_boundary(core::FilterContext& ctx);
  /// Z-buffer dumps its dense contents here; Active Pixel flushes the tail.
  void eow(core::FilterContext& ctx);

  [[nodiscard]] HsrAlgorithm algorithm() const { return alg_; }
  [[nodiscard]] int stripes() const { return stripes_; }
  [[nodiscard]] int stripe_of(std::uint32_t index) const;

  /// External fragment consumer: when set, every PixEntry batch — Active
  /// Pixel flushes and the dense z-buffer EOW dump alike — is handed to the
  /// sink instead of being written to the engine's output ports. The
  /// compositor's fragment router uses this to frame and route entries by
  /// tile id; the sink takes over all writing. Mutually exclusive with
  /// set_partitioning (stripe routing stays on the port path).
  using EntrySink =
      std::function<void(core::FilterContext&, const PixEntry*, std::size_t)>;
  void set_entry_sink(EntrySink sink) { sink_ = std::move(sink); }

 private:
  void flush_entries(core::FilterContext& ctx, const std::vector<PixEntry>& entries);

  HsrAlgorithm alg_;
  VizWorkload w_;
  Camera camera_;
  int stripes_ = 1;
  int stripe_rows_ = 0;
  EntrySink sink_;
  ZBuffer zb_;                               // kZBuffer
  std::unique_ptr<ActivePixelRaster> ap_;    // kActivePixel
};

/// Ra: rasterizes triangles with the chosen HSR algorithm. With
/// `stripes > 1`, output is image-partitioned across that many ports.
class RasterFilter final : public core::Filter {
 public:
  RasterFilter(HsrAlgorithm alg, VizWorkload w, int stripes = 1)
      : engine_(alg, w) {
    engine_.set_partitioning(stripes);
  }
  /// The wrapped HSR engine, exposed so composing filters (the tiled
  /// compositor producers) can install an entry sink before init runs.
  [[nodiscard]] HsrEngine& engine() { return engine_; }
  void init(core::FilterContext& ctx) override { engine_.init(ctx); }
  void process_buffer(core::FilterContext& ctx, int port,
                      const core::Buffer& buf) override;
  void process_eow(core::FilterContext& ctx) override { engine_.eow(ctx); }

 private:
  HsrEngine engine_;
};

/// M: merges PixEntry streams into the final image (always a single copy;
/// the merge makes the output independent of how many transparent copies of
/// the upstream filters ran — paper Sections 1 and 3.1).
class MergeFilter final : public core::Filter {
 public:
  MergeFilter(VizWorkload w, std::shared_ptr<RenderSink> sink)
      : w_(w), sink_(std::move(sink)) {}
  void init(core::FilterContext& ctx) override;
  void process_buffer(core::FilterContext& ctx, int port,
                      const core::Buffer& buf) override;
  void process_eow(core::FilterContext& ctx) override;

 private:
  VizWorkload w_;
  std::shared_ptr<RenderSink> sink_;
  ZBuffer zb_;
};

// ---------------------------------------------------------------------------
// Fused filters for the RERa–M, RE–Ra–M and R–ERa–M configurations (Fig. 3)
// ---------------------------------------------------------------------------

/// RE: reads local chunks and extracts triangles in one filter.
class ReadExtractFilter final : public core::SourceFilter {
 public:
  explicit ReadExtractFilter(VizWorkload w) : w_(w) {}
  void init(core::FilterContext& ctx) override;
  bool step(core::FilterContext& ctx) override;

 private:
  VizWorkload w_;
  ChunkPlan plan_;
  std::vector<float> scratch_;
  std::vector<Triangle> tris_;
};

/// ERa: extracts and rasterizes in one filter.
class ExtractRasterFilter final : public core::Filter {
 public:
  ExtractRasterFilter(HsrAlgorithm alg, VizWorkload w) : w_(w), engine_(alg, w) {}
  [[nodiscard]] HsrEngine& engine() { return engine_; }
  void init(core::FilterContext& ctx) override { engine_.init(ctx); }
  void process_buffer(core::FilterContext& ctx, int port,
                      const core::Buffer& buf) override;
  void process_eow(core::FilterContext& ctx) override { engine_.eow(ctx); }

 private:
  VizWorkload w_;
  HsrEngine engine_;
  std::vector<Triangle> tris_;
};

/// RERa: the fully fused SPMD-style worker (read + extract + rasterize).
class ReadExtractRasterFilter final : public core::SourceFilter {
 public:
  ReadExtractRasterFilter(HsrAlgorithm alg, VizWorkload w)
      : w_(w), engine_(alg, w) {}
  [[nodiscard]] HsrEngine& engine() { return engine_; }
  void init(core::FilterContext& ctx) override;
  bool step(core::FilterContext& ctx) override;
  void process_eow(core::FilterContext& ctx) override { engine_.eow(ctx); }

 private:
  VizWorkload w_;
  HsrEngine engine_;
  ChunkPlan plan_;
  std::vector<float> scratch_;
  std::vector<Triangle> tris_;
};

/// Chunks on `host`, split round-robin among `copies` co-located copies.
[[nodiscard]] std::vector<data::ChunkRef> local_chunks(const VizWorkload& w,
                                                       int host, int copy,
                                                       int copies);

/// Loads one chunk's samples. Out of core (`w.reader` set) they are the
/// block `stream` returns next, used in place — bit-identical to the
/// synthesized samples, which is what the writer materialized; a null
/// `stream` demand-reads the chunk instead. In memory they are synthesized
/// from `w.field` into `scratch`.
ChunkSamples load_chunk_samples(const VizWorkload& w, io::ReadStream* stream,
                                const data::ChunkRef& ref, float timestep,
                                std::vector<float>& scratch);

/// Extracts triangles from one chunk's samples; appends to `tris` and
/// returns the marching-cubes statistics. Shared by all read-side filters.
McStats extract_chunk(const VizWorkload& w, const data::ChunkRef& ref,
                      const float* samples, std::vector<Triangle>& tris);

/// CPU demand of extracting per `extract_chunk` stats.
[[nodiscard]] double extract_ops(const CostModel& c, const McStats& s);

}  // namespace dc::viz
