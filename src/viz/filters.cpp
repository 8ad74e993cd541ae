#include "viz/filters.hpp"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "viz/raster.hpp"

namespace dc::viz {

static_assert(sizeof(Triangle) == 36, "Triangle must stay a compact record");

const char* to_string(HsrAlgorithm a) {
  return a == HsrAlgorithm::kZBuffer ? "Z-buffer" : "Active Pixel";
}

Camera VizWorkload::make_camera(int uow) const {
  const auto& g = store->layout().grid();
  return Camera::for_volume(g.nx, g.ny, g.nz, width, height,
                            vary_view_per_uow ? uow : 0);
}

void RenderSink::push(Image&& img) {
  digests.push_back(img.digest());
  active_pixel_counts.push_back(img.active_pixels(background));
  if (keep_images) {
    images.push_back(std::move(img));
  }
}

void for_each_block(
    const core::Buffer& buf,
    const std::function<void(const BlockHeader&, const float*)>& fn) {
  const auto bytes = buf.bytes();
  std::size_t off = 0;
  while (off + sizeof(BlockHeader) <= bytes.size()) {
    BlockHeader h;
    std::memcpy(&h, bytes.data() + off, sizeof(BlockHeader));
    const std::size_t need = h.packed_bytes();
    if (off + need > bytes.size()) {
      throw std::runtime_error("for_each_block: truncated block");
    }
    // Blocks are packed at 4-byte multiples, so the sample view is aligned.
    const auto* samples =
        reinterpret_cast<const float*>(bytes.data() + off + sizeof(BlockHeader));
    fn(h, samples);
    off += need;
  }
  if (off != bytes.size()) {
    throw std::runtime_error("for_each_block: trailing bytes");
  }
}

std::vector<data::ChunkRef> local_chunks(const VizWorkload& w, int host, int copy,
                                         int copies) {
  auto refs = w.store->chunks_on_host(host);
  if (copies <= 1) return refs;
  std::vector<data::ChunkRef> mine;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (static_cast<int>(i % static_cast<std::size_t>(copies)) == copy) {
      mine.push_back(refs[i]);
    }
  }
  return mine;
}

void ChunkPlan::open(const VizWorkload& w, const core::FilterContext& ctx) {
  chunks = local_chunks(w, ctx.host(), ctx.copy_in_host(), ctx.copies_on_host());
  next = 0;
  if (w.reader == nullptr) return;
  std::vector<int> ids;
  ids.reserve(chunks.size());
  for (const data::ChunkRef& ref : chunks) ids.push_back(ref.chunk);
  stream = io::ReadStream(*w.reader, std::move(ids),
                          static_cast<int>(w.timestep(ctx.uow_index())),
                          w.prefetch_depth);
}

ChunkSamples load_chunk_samples(const VizWorkload& w, io::ReadStream* stream,
                                const data::ChunkRef& ref, float timestep,
                                std::vector<float>& scratch) {
  ChunkSamples s;
  if (w.reader == nullptr) {
    w.field->fill_chunk(w.store->layout(), ref.chunk, timestep, scratch);
    s.data = scratch.data();
    return s;
  }
  s.block = stream != nullptr
                ? stream->next(&s.io_wait_s)
                : w.reader->read(ref.chunk, static_cast<int>(timestep), &s.io_wait_s);
  const auto expected = static_cast<std::size_t>(
                            w.store->layout().chunk_box(ref.chunk).points()) *
                        sizeof(float);
  if (s.block->size() != expected) {
    throw std::runtime_error(
        "load_chunk_samples: on-disk chunk size mismatch (stale store?)");
  }
  // Blocks are heap allocations, aligned for any scalar type.
  assert(reinterpret_cast<std::uintptr_t>(s.block->data()) % alignof(float) == 0);
  s.data = reinterpret_cast<const float*>(s.block->data());
  return s;
}

McStats extract_chunk(const VizWorkload& w, const data::ChunkRef& ref,
                      const float* samples, std::vector<Triangle>& tris) {
  const data::CellBox box = w.store->layout().chunk_box(ref.chunk);
  return marching_cubes(samples, box.hi[0] - box.lo[0], box.hi[1] - box.lo[1],
                        box.hi[2] - box.lo[2], static_cast<float>(box.lo[0]),
                        static_cast<float>(box.lo[1]),
                        static_cast<float>(box.lo[2]), w.iso_value, tris);
}

double extract_ops(const CostModel& c, const McStats& s) {
  return c.mc_per_cell * static_cast<double>(s.cells) +
         c.mc_per_active_cell * static_cast<double>(s.active_cells) +
         c.mc_per_triangle * static_cast<double>(s.triangles);
}

// ---------------------------------------------------------------------------
// ReadFilter
// ---------------------------------------------------------------------------

void ReadFilter::init(core::FilterContext& ctx) {
  plan_.open(w_, ctx);
  out_ = core::Buffer();
}

namespace {

/// Samples the grid points of a cell box [x0, x0+nx] x ...: sliced out of
/// the already-loaded chunk samples in the out-of-core mode, else evaluated
/// directly from the field (used when a chunk must be split to fit the
/// stream buffer). Both paths produce bit-identical floats: the on-disk
/// payload is the same fill_chunk sampling of the same field.
void sample_box(const VizWorkload& w, float timestep, const BlockHeader& h,
                const float* chunk_samples, const data::CellBox& chunk_box,
                std::vector<float>& out) {
  out.clear();
  out.reserve(h.sample_count());
  if (chunk_samples != nullptr) {
    const int px = chunk_box.hi[0] - chunk_box.lo[0] + 1;
    const int py = chunk_box.hi[1] - chunk_box.lo[1] + 1;
    for (int z = h.z0; z <= h.z0 + h.nz; ++z) {
      for (int y = h.y0; y <= h.y0 + h.ny; ++y) {
        for (int x = h.x0; x <= h.x0 + h.nx; ++x) {
          const std::size_t idx =
              (static_cast<std::size_t>(z - chunk_box.lo[2]) *
                   static_cast<std::size_t>(py) +
               static_cast<std::size_t>(y - chunk_box.lo[1])) *
                  static_cast<std::size_t>(px) +
              static_cast<std::size_t>(x - chunk_box.lo[0]);
          out.push_back(chunk_samples[idx]);
        }
      }
    }
    return;
  }
  const auto& g = w.store->layout().grid();
  const float ix = 1.0f / static_cast<float>(g.nx);
  const float iy = 1.0f / static_cast<float>(g.ny);
  const float iz = 1.0f / static_cast<float>(g.nz);
  for (int z = h.z0; z <= h.z0 + h.nz; ++z) {
    for (int y = h.y0; y <= h.y0 + h.ny; ++y) {
      for (int x = h.x0; x <= h.x0 + h.nx; ++x) {
        out.push_back(w.field->value(static_cast<float>(x) * ix,
                                     static_cast<float>(y) * iy,
                                     static_cast<float>(z) * iz, timestep));
      }
    }
  }
}

/// Emits the box, splitting along the longest axis until it fits one buffer.
void emit_box(const VizWorkload& w, core::FilterContext& ctx, float timestep,
              core::Buffer& out, std::vector<float>& scratch,
              const float* chunk_samples, const data::CellBox& chunk_box,
              BlockHeader h) {
  const std::size_t cap = ctx.buffer_bytes(0);
  if (h.packed_bytes() > cap) {
    if (h.nx <= 1 && h.ny <= 1 && h.nz <= 1) {
      throw std::runtime_error("ReadFilter: stream buffer smaller than one cell");
    }
    BlockHeader a = h, b = h;
    if (h.nz >= h.ny && h.nz >= h.nx && h.nz > 1) {
      a.nz = h.nz / 2;
      b.z0 = h.z0 + a.nz;
      b.nz = h.nz - a.nz;
    } else if (h.ny >= h.nx && h.ny > 1) {
      a.ny = h.ny / 2;
      b.y0 = h.y0 + a.ny;
      b.ny = h.ny - a.ny;
    } else {
      a.nx = h.nx / 2;
      b.x0 = h.x0 + a.nx;
      b.nx = h.nx - a.nx;
    }
    emit_box(w, ctx, timestep, out, scratch, chunk_samples, chunk_box, a);
    emit_box(w, ctx, timestep, out, scratch, chunk_samples, chunk_box, b);
    return;
  }
  sample_box(w, timestep, h, chunk_samples, chunk_box, scratch);
  if (out.capacity() == 0) out = ctx.make_buffer(0);
  if (out.remaining() < h.packed_bytes()) {
    ctx.write(0, out);
    out = ctx.make_buffer(0);
  }
  const bool ok =
      out.push(h) &&
      out.append(std::as_bytes(std::span<const float>(scratch.data(), scratch.size())));
  assert(ok);
  (void)ok;
}

}  // namespace

void ReadFilter::emit_chunk(core::FilterContext& ctx, const data::ChunkRef& ref) {
  const float timestep = w_.timestep(ctx.uow_index());
  const data::CellBox box = w_.store->layout().chunk_box(ref.chunk);
  ChunkSamples samples;  // in memory: null, emit_box samples the field
  if (w_.reader != nullptr) {
    samples = load_chunk_samples(w_, &plan_.stream, ref, timestep, scratch_);
    ctx.note_io_wait(samples.io_wait_s);
  }
  BlockHeader h;
  h.x0 = box.lo[0];
  h.y0 = box.lo[1];
  h.z0 = box.lo[2];
  h.nx = box.hi[0] - box.lo[0];
  h.ny = box.hi[1] - box.lo[1];
  h.nz = box.hi[2] - box.lo[2];
  emit_box(w_, ctx, timestep, out_, scratch_, samples.data, box, h);
}

bool ReadFilter::step(core::FilterContext& ctx) {
  if (plan_.done()) return false;
  const data::ChunkRef ref = plan_.chunks[plan_.next++];
  ctx.read_disk(ref.disk, ref.bytes);
  ctx.charge(w_.cost.read_per_byte * static_cast<double>(ref.bytes));
  emit_chunk(ctx, ref);
  return !plan_.done();
}

void ReadFilter::process_eow(core::FilterContext& ctx) {
  if (out_.size() > 0) {
    ctx.write(0, out_);
    out_ = core::Buffer();
  }
}

// ---------------------------------------------------------------------------
// ExtractFilter
// ---------------------------------------------------------------------------

void ExtractFilter::process_buffer(core::FilterContext& ctx, int /*port*/,
                                   const core::Buffer& buf) {
  tris_.clear();
  McStats total;
  for_each_block(buf, [&](const BlockHeader& h, const float* samples) {
    const McStats s = marching_cubes(
        samples, h.nx, h.ny, h.nz, static_cast<float>(h.x0),
        static_cast<float>(h.y0), static_cast<float>(h.z0), w_.iso_value, tris_);
    total.cells += s.cells;
    total.active_cells += s.active_cells;
    total.triangles += s.triangles;
  });
  ctx.charge(extract_ops(w_.cost, total));

  // "When the output buffer is full or the entire input buffer has been
  // processed, the output buffer is sent" (paper Section 3.1.1).
  core::Buffer out = ctx.make_buffer(0);
  for (const Triangle& t : tris_) {
    if (!out.push(t)) {
      ctx.write(0, out);
      out = ctx.make_buffer(0);
      out.push(t);
    }
  }
  if (out.size() > 0) ctx.write(0, out);
}

// ---------------------------------------------------------------------------
// HsrEngine
// ---------------------------------------------------------------------------

void HsrEngine::set_partitioning(int stripes) {
  if (stripes < 1) {
    throw std::invalid_argument("HsrEngine: stripes must be >= 1");
  }
  stripes_ = stripes;
}

int HsrEngine::stripe_of(std::uint32_t index) const {
  if (stripes_ == 1) return 0;
  const int y = static_cast<int>(index / static_cast<std::uint32_t>(w_.width));
  return std::min(stripes_ - 1, y / stripe_rows_);
}

void HsrEngine::init(core::FilterContext& ctx) {
  camera_ = w_.make_camera(ctx.uow_index());
  stripe_rows_ = (w_.height + stripes_ - 1) / stripes_;
  if (alg_ == HsrAlgorithm::kZBuffer) {
    zb_ = ZBuffer(w_.width, w_.height);
    ctx.charge(w_.cost.zbuffer_touch_per_entry *
               static_cast<double>(zb_.size()));
  } else {
    const std::size_t cap =
        std::max<std::size_t>(1, ctx.buffer_bytes(0) / sizeof(PixEntry));
    ap_ = std::make_unique<ActivePixelRaster>(w_.width, w_.height, cap);
    ctx.charge(w_.cost.msa_touch_per_column * static_cast<double>(w_.width));
  }
}

void HsrEngine::flush_entries(core::FilterContext& ctx,
                              const std::vector<PixEntry>& entries) {
  if (sink_) {
    sink_(ctx, entries.data(), entries.size());
    return;
  }
  if (stripes_ == 1) {
    core::Buffer out = ctx.make_buffer(0);
    for (const PixEntry& e : entries) {
      if (!out.push(e)) {
        ctx.write(0, out);
        out = ctx.make_buffer(0);
        out.push(e);
      }
    }
    if (out.size() > 0) ctx.write(0, out);
    return;
  }
  // Image-partitioned output: route each entry to its stripe's port.
  std::vector<core::Buffer> outs(static_cast<std::size_t>(stripes_));
  for (const PixEntry& e : entries) {
    const int port = stripe_of(e.index);
    core::Buffer& out = outs[static_cast<std::size_t>(port)];
    if (out.capacity() == 0) out = ctx.make_buffer(port);
    if (!out.push(e)) {
      ctx.write(port, out);
      out = ctx.make_buffer(port);
      out.push(e);
    }
  }
  for (int port = 0; port < stripes_; ++port) {
    core::Buffer& out = outs[static_cast<std::size_t>(port)];
    if (out.size() > 0) ctx.write(port, out);
  }
}

void HsrEngine::raster(core::FilterContext& ctx, const Triangle* tris,
                       std::size_t n) {
  const float scalar_norm = w_.iso_value / w_.field_max;
  std::uint64_t fragments = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ScreenTriangle st;
    if (!camera_.project(tris[i], st)) continue;
    const std::uint32_t rgba =
        shade_flat(st.world_normal, camera_.view_dir(), scalar_norm);
    if (alg_ == HsrAlgorithm::kZBuffer) {
      fragments += rasterize(st, w_.width, w_.height, [&](int x, int y, float d) {
        zb_.apply(static_cast<std::uint32_t>(y) *
                          static_cast<std::uint32_t>(w_.width) +
                      static_cast<std::uint32_t>(x),
                  d, rgba);
      });
    } else {
      const std::uint64_t before = ap_->fragments_generated();
      ap_->add(st, rgba,
               [&](const std::vector<PixEntry>& e) { flush_entries(ctx, e); });
      fragments += ap_->fragments_generated() - before;
    }
  }
  double ops = w_.cost.raster_per_triangle * static_cast<double>(n) +
               w_.cost.raster_per_fragment * static_cast<double>(fragments);
  if (alg_ == HsrAlgorithm::kActivePixel) {
    ops += w_.cost.ap_fragment_extra * static_cast<double>(fragments);
  }
  ctx.charge(ops);
}

void HsrEngine::input_boundary(core::FilterContext& ctx) {
  if (alg_ == HsrAlgorithm::kActivePixel && ap_) {
    // "The WPA is sent to the merge filter when full or when all triangles
    // in the current input buffer are processed."
    ap_->flush([&](const std::vector<PixEntry>& e) { flush_entries(ctx, e); });
  }
}

void HsrEngine::eow(core::FilterContext& ctx) {
  if (alg_ == HsrAlgorithm::kZBuffer && sink_) {
    // Dense dump through the external sink: same index-ordered entries as
    // the port path below, but the sink owns framing and routing.
    const auto size = static_cast<std::uint32_t>(zb_.size());
    std::vector<PixEntry> dense;
    dense.reserve(size);
    for (std::uint32_t i = 0; i < size; ++i) {
      dense.push_back(PixEntry{i, zb_.depth_at(i), zb_.rgba_at(i)});
    }
    sink_(ctx, dense.data(), dense.size());
    ctx.charge(w_.cost.zbuffer_touch_per_entry * static_cast<double>(size));
    return;
  }
  if (alg_ == HsrAlgorithm::kZBuffer) {
    // Dense dump: pixel information for inactive locations is transmitted
    // too — the communication overhead the paper calls out. Indices run in
    // stripe order, so per-stripe routing only changes ports at boundaries.
    int port = 0;
    core::Buffer out = ctx.make_buffer(0);
    const auto size = static_cast<std::uint32_t>(zb_.size());
    for (std::uint32_t i = 0; i < size; ++i) {
      const int p = stripe_of(i);
      if (p != port) {
        if (out.size() > 0) ctx.write(port, out);
        port = p;
        out = ctx.make_buffer(port);
      }
      const PixEntry e{i, zb_.depth_at(i), zb_.rgba_at(i)};
      if (!out.push(e)) {
        ctx.write(port, out);
        out = ctx.make_buffer(port);
        out.push(e);
      }
    }
    if (out.size() > 0) ctx.write(port, out);
    ctx.charge(w_.cost.zbuffer_touch_per_entry * static_cast<double>(size));
  } else if (ap_) {
    ap_->flush([&](const std::vector<PixEntry>& e) { flush_entries(ctx, e); });
  }
}

// ---------------------------------------------------------------------------
// RasterFilter / MergeFilter
// ---------------------------------------------------------------------------

void RasterFilter::process_buffer(core::FilterContext& ctx, int /*port*/,
                                  const core::Buffer& buf) {
  const auto tris = buf.records<Triangle>();
  engine_.raster(ctx, tris.data(), tris.size());
  engine_.input_boundary(ctx);
}

void MergeFilter::init(core::FilterContext& ctx) {
  zb_ = ZBuffer(w_.width, w_.height);
  ctx.charge(w_.cost.zbuffer_touch_per_entry * static_cast<double>(zb_.size()));
}

void MergeFilter::process_buffer(core::FilterContext& ctx, int /*port*/,
                                 const core::Buffer& buf) {
  const auto entries = buf.records<PixEntry>();
  for (const PixEntry& e : entries) zb_.apply(e);
  ctx.charge(w_.cost.merge_per_entry * static_cast<double>(entries.size()));
}

void MergeFilter::process_eow(core::FilterContext& ctx) {
  ctx.charge(w_.cost.image_per_pixel * static_cast<double>(zb_.size()));
  sink_->push(zb_.to_image(sink_->background));
}

// ---------------------------------------------------------------------------
// Fused filters
// ---------------------------------------------------------------------------

void ReadExtractFilter::init(core::FilterContext& ctx) { plan_.open(w_, ctx); }

bool ReadExtractFilter::step(core::FilterContext& ctx) {
  if (plan_.done()) return false;
  const data::ChunkRef ref = plan_.chunks[plan_.next++];
  ctx.read_disk(ref.disk, ref.bytes);
  const ChunkSamples in = load_chunk_samples(
      w_, &plan_.stream, ref, w_.timestep(ctx.uow_index()), scratch_);
  ctx.note_io_wait(in.io_wait_s);
  tris_.clear();
  const McStats s = extract_chunk(w_, ref, in.data, tris_);
  ctx.charge(w_.cost.read_per_byte * static_cast<double>(ref.bytes) +
             extract_ops(w_.cost, s));
  core::Buffer out = ctx.make_buffer(0);
  for (const Triangle& t : tris_) {
    if (!out.push(t)) {
      ctx.write(0, out);
      out = ctx.make_buffer(0);
      out.push(t);
    }
  }
  if (out.size() > 0) ctx.write(0, out);
  return !plan_.done();
}

void ExtractRasterFilter::process_buffer(core::FilterContext& ctx, int /*port*/,
                                         const core::Buffer& buf) {
  tris_.clear();
  McStats total;
  for_each_block(buf, [&](const BlockHeader& h, const float* samples) {
    const McStats s = marching_cubes(
        samples, h.nx, h.ny, h.nz, static_cast<float>(h.x0),
        static_cast<float>(h.y0), static_cast<float>(h.z0), w_.iso_value, tris_);
    total.cells += s.cells;
    total.active_cells += s.active_cells;
    total.triangles += s.triangles;
  });
  ctx.charge(extract_ops(w_.cost, total));
  engine_.raster(ctx, tris_.data(), tris_.size());
  engine_.input_boundary(ctx);
}

void ReadExtractRasterFilter::init(core::FilterContext& ctx) {
  engine_.init(ctx);
  plan_.open(w_, ctx);
}

bool ReadExtractRasterFilter::step(core::FilterContext& ctx) {
  if (plan_.done()) return false;
  const data::ChunkRef ref = plan_.chunks[plan_.next++];
  ctx.read_disk(ref.disk, ref.bytes);
  const ChunkSamples in = load_chunk_samples(
      w_, &plan_.stream, ref, w_.timestep(ctx.uow_index()), scratch_);
  ctx.note_io_wait(in.io_wait_s);
  tris_.clear();
  const McStats s = extract_chunk(w_, ref, in.data, tris_);
  ctx.charge(w_.cost.read_per_byte * static_cast<double>(ref.bytes) +
             extract_ops(w_.cost, s));
  engine_.raster(ctx, tris_.data(), tris_.size());
  engine_.input_boundary(ctx);
  return !plan_.done();
}

}  // namespace dc::viz
