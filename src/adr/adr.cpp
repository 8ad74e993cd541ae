#include "adr/adr.hpp"

#include <deque>
#include <memory>
#include <stdexcept>

#include "viz/marching_cubes.hpp"
#include "viz/raster.hpp"
#include "viz/zbuffer.hpp"

namespace dc::adr {

namespace {

struct NodeState {
  int host = -1;
  std::vector<data::ChunkRef> chunks;
  std::size_t next_read = 0;
  int inflight_reads = 0;
  std::size_t computes_pending = 0;
  bool sent = false;
  viz::ZBuffer zb;
  std::vector<float> scratch;
  std::vector<viz::Triangle> tris;
  // Compute is one worker thread per core pulling from a queue of read
  // chunks — the SPMD threading ADR actually uses. (Submitting every chunk
  // as its own concurrent job would let the node grab an outsized share of
  // a loaded CPU under the fair-share model.)
  std::deque<double> compute_queue;  ///< pending per-chunk compute demands
  int active_workers = 0;
};

struct UowState {
  sim::Topology* topo = nullptr;
  viz::VizWorkload w;
  AdrConfig cfg;
  viz::Camera camera;
  int merge_host = -1;
  int uow = 0;

  std::vector<NodeState> nodes;
  viz::ZBuffer global;
  std::size_t messages_pending_merge = 0;  ///< merge-side work not yet retired
  std::size_t nodes_not_sent = 0;
  bool all_sends_issued = false;
  bool finished = false;
  sim::SimTime finish_time = 0.0;
};

/// Rasterizes one chunk's triangles into the node z-buffer; returns the ops.
double raster_chunk(UowState& st, NodeState& node) {
  const float scalar_norm = st.w.iso_value / st.w.field_max;
  std::uint64_t fragments = 0;
  for (const viz::Triangle& t : node.tris) {
    viz::ScreenTriangle s;
    if (!st.camera.project(t, s)) continue;
    const std::uint32_t rgba =
        viz::shade_flat(s.world_normal, st.camera.view_dir(), scalar_norm);
    fragments += viz::rasterize(s, st.w.width, st.w.height,
                                [&](int x, int y, float d) {
                                  node.zb.apply(
                                      static_cast<std::uint32_t>(y) *
                                              static_cast<std::uint32_t>(st.w.width) +
                                          static_cast<std::uint32_t>(x),
                                      d, rgba);
                                });
  }
  return st.w.cost.raster_per_triangle * static_cast<double>(node.tris.size()) +
         st.w.cost.raster_per_fragment * static_cast<double>(fragments);
}

void start_send_phase(std::shared_ptr<UowState> st, std::size_t node_idx);
void check_merge_done(std::shared_ptr<UowState> st);

void pump_workers(std::shared_ptr<UowState> st, std::size_t node_idx) {
  NodeState& node = st->nodes[node_idx];
  auto& host = st->topo->host(node.host);
  while (node.active_workers < host.cpu().cores() && !node.compute_queue.empty()) {
    const double ops = node.compute_queue.front();
    node.compute_queue.pop_front();
    ++node.active_workers;
    host.cpu().submit(ops, [st, node_idx] {
      NodeState& n = st->nodes[node_idx];
      --n.active_workers;
      --n.computes_pending;
      pump_workers(st, node_idx);
      if (n.computes_pending == 0 && n.next_read == n.chunks.size() &&
          n.inflight_reads == 0 && !n.sent) {
        start_send_phase(st, node_idx);
      }
    });
  }
}

void issue_reads(std::shared_ptr<UowState> st, std::size_t node_idx) {
  NodeState& node = st->nodes[node_idx];
  auto& host = st->topo->host(node.host);
  while (node.inflight_reads < st->cfg.io_depth &&
         node.next_read < node.chunks.size()) {
    const data::ChunkRef ref = node.chunks[node.next_read++];
    ++node.inflight_reads;
    host.disk(ref.disk).read(ref.bytes, [st, node_idx, ref] {
      NodeState& n = st->nodes[node_idx];
      --n.inflight_reads;
      // Keep the I/O pipeline full while this chunk computes.
      issue_reads(st, node_idx);
      // Fused extract + rasterize into the node-local z-buffer. The real
      // work runs now; its cost is queued for the per-core worker threads
      // and retires on the node's (possibly loaded) CPU.
      n.tris.clear();
      const viz::ChunkSamples in = viz::load_chunk_samples(
          st->w, nullptr, ref, st->w.timestep(st->uow), n.scratch);
      const viz::McStats s = viz::extract_chunk(st->w, ref, in.data, n.tris);
      double ops = st->w.cost.read_per_byte * static_cast<double>(ref.bytes) +
                   viz::extract_ops(st->w.cost, s);
      ops += raster_chunk(*st, n);
      n.compute_queue.push_back(ops);
      pump_workers(st, node_idx);
    });
  }
}

void start_send_phase(std::shared_ptr<UowState> st, std::size_t node_idx) {
  NodeState& node = st->nodes[node_idx];
  node.sent = true;

  // Fold this node's accumulator into the global one now; compositing is
  // commutative and associative, so the final image does not depend on the
  // (virtual) arrival order. Time is charged on the merge node per message.
  const auto size = static_cast<std::uint32_t>(node.zb.size());
  for (std::uint32_t i = 0; i < size; ++i) {
    st->global.apply(i, node.zb.depth_at(i), node.zb.rgba_at(i));
  }

  const std::uint64_t total_bytes =
      static_cast<std::uint64_t>(size) * sizeof(viz::PixEntry);
  const std::size_t n_msgs =
      (total_bytes + st->cfg.message_bytes - 1) / st->cfg.message_bytes;
  const std::size_t entries_per_msg = st->cfg.message_bytes / sizeof(viz::PixEntry);

  auto& host = st->topo->host(node.host);
  // Serialize the z-buffer (dense — inactive pixels included), then stream
  // the messages to the merge node.
  host.cpu().submit(
      st->w.cost.zbuffer_touch_per_entry * static_cast<double>(size),
      [st, node_idx, n_msgs, entries_per_msg] {
        NodeState& n = st->nodes[node_idx];
        st->messages_pending_merge += n_msgs;
        if (--st->nodes_not_sent == 0) st->all_sends_issued = true;
        for (std::size_t i = 0; i < n_msgs; ++i) {
          st->topo->network().send(
              n.host, st->merge_host,
              st->cfg.message_bytes + st->cfg.header_bytes,
              [st, entries_per_msg] {
                st->topo->host(st->merge_host)
                    .cpu()
                    .submit(st->w.cost.merge_per_entry *
                                static_cast<double>(entries_per_msg),
                            [st] {
                              --st->messages_pending_merge;
                              check_merge_done(st);
                            });
              });
        }
        check_merge_done(st);
      });
}

void check_merge_done(std::shared_ptr<UowState> st) {
  if (st->finished || !st->all_sends_issued || st->messages_pending_merge != 0) {
    return;
  }
  st->finished = true;  // guard; the image extraction below runs once
  st->topo->host(st->merge_host)
      .cpu()
      .submit(st->w.cost.image_per_pixel * static_cast<double>(st->global.size()),
              [st] { st->finish_time = st->topo->sim().now(); });
}

}  // namespace

AdrResult run_adr_isosurface(sim::Topology& topo, const viz::VizWorkload& workload,
                             const std::vector<int>& nodes, int merge_host,
                             const AdrConfig& config, int uows) {
  if (nodes.empty()) {
    throw std::invalid_argument("run_adr_isosurface: no nodes");
  }
  AdrResult result;
  for (int u = 0; u < uows; ++u) {
    auto st = std::make_shared<UowState>();
    st->topo = &topo;
    st->w = workload;
    st->cfg = config;
    st->camera = workload.make_camera(u);
    st->merge_host = merge_host;
    st->uow = u;
    st->global = viz::ZBuffer(workload.width, workload.height);
    st->nodes.resize(nodes.size());
    st->nodes_not_sent = nodes.size();

    const sim::SimTime t0 = topo.sim().now();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      NodeState& n = st->nodes[i];
      n.host = nodes[i];
      n.chunks = workload.store->chunks_on_host(nodes[i]);
      n.computes_pending = n.chunks.size();
      n.zb = viz::ZBuffer(workload.width, workload.height);
      // Accumulator initialization, then the overlapped read/compute loop.
      topo.host(n.host).cpu().submit(
          workload.cost.zbuffer_touch_per_entry * static_cast<double>(n.zb.size()),
          [st, i] {
            NodeState& node = st->nodes[i];
            if (node.chunks.empty()) {
              start_send_phase(st, i);
            } else {
              issue_reads(st, i);
            }
          });
    }

    topo.sim().run();
    if (!st->finished || st->finish_time == 0.0) {
      throw std::runtime_error("run_adr_isosurface: UOW did not complete");
    }
    result.per_uow.push_back(st->finish_time - t0);
    result.digests.push_back(st->global.to_image(viz::RenderSink{}.background).digest());
    if (u == uows - 1) {
      result.last_image = st->global.to_image(viz::RenderSink{}.background);
    }
  }
  sim::SimTime sum = 0.0;
  for (sim::SimTime t : result.per_uow) sum += t;
  result.avg = result.per_uow.empty()
                   ? 0.0
                   : sum / static_cast<double>(result.per_uow.size());
  return result;
}

}  // namespace dc::adr
