// Native threaded pipeline experiment: wall-clock thread scaling of the
// RE-Ra-M isosurface pipeline on exec::Engine (real OS threads, real
// rasterization work — no virtual clock anywhere).
//
// One RE source reads and extracts; Ra is replicated with 1 / 2 / 4 / 8
// transparent copies, each copy a worker thread fed through the bounded
// buffer queues by the selected writer policy; a single M copy merges. The
// table reports the per-timestep wall time and the speedup over the
// single-copy baseline, and every configuration's image digest is checked
// against the non-distributed reference render. Machine-readable results are
// emitted as one JSON object on the last line.
//
//   build/bench/exp_native_pipeline [--quick]

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.hpp"
#include "exp_common.hpp"
#include "viz/app.hpp"
#include "viz/image.hpp"
#include "viz/raster.hpp"
#include "viz/zbuffer.hpp"

using namespace dc;

namespace {

/// Reference render (single z-buffer, no engine) for the digest check.
viz::Image direct_render(const viz::VizWorkload& w, int uow) {
  const viz::Camera cam = w.make_camera(uow);
  viz::ZBuffer zb(w.width, w.height);
  std::vector<float> scratch;
  std::vector<viz::Triangle> tris;
  const float scalar_norm = w.iso_value / w.field_max;
  for (int c = 0; c < w.store->layout().num_chunks(); ++c) {
    tris.clear();
    const data::CellBox box = w.store->layout().chunk_box(c);
    w.field->fill_chunk(w.store->layout(), c, w.timestep(uow), scratch);
    viz::marching_cubes(scratch.data(), box.hi[0] - box.lo[0],
                        box.hi[1] - box.lo[1], box.hi[2] - box.lo[2],
                        static_cast<float>(box.lo[0]),
                        static_cast<float>(box.lo[1]),
                        static_cast<float>(box.lo[2]), w.iso_value, tris);
    for (const viz::Triangle& t : tris) {
      viz::ScreenTriangle st;
      if (!cam.project(t, st)) continue;
      const std::uint32_t rgba =
          viz::shade_flat(st.world_normal, cam.view_dir(), scalar_norm);
      viz::rasterize(st, w.width, w.height, [&](int x, int y, float depth) {
        zb.apply(static_cast<std::uint32_t>(y) *
                     static_cast<std::uint32_t>(w.width) +
                     static_cast<std::uint32_t>(x),
                 depth, rgba);
      });
    }
  }
  return zb.to_image(viz::RenderSink{}.background);
}

struct ScalePoint {
  int ra_copies = 0;
  int threads = 0;  ///< total worker threads (RE + Ra copies + M)
  double wall_s = 0.0;
  double speedup = 1.0;
  bool image_ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  const exp::Args args = exp::Args::parse(argc, argv);

  // Dataset only — the native engine needs no simulated cluster. Host ids
  // are labels for placement and data locality: chunks on "host" 0 feed the
  // RE copy placed there.
  const data::ChunkLayout layout(data::GridDims{args.grid, args.grid, args.grid},
                                 args.chunks, args.chunks, args.chunks);
  data::DatasetStore store(layout, data::hilbert_decluster(layout, args.files),
                           args.files);
  const data::PlumeField field(args.seed);
  store.place_uniform({data::FileLocation{0, 0}});

  viz::VizWorkload w;
  w.store = &store;
  w.field = &field;
  w.iso_value = args.iso;
  w.width = args.small_image;
  w.height = args.small_image;

  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;

  exp::print_title("Native threaded RE-Ra-M pipeline (exec::Engine)",
                   "wall-clock thread scaling, demand-driven policy, " +
                       std::to_string(args.uows) + " timestep(s), image " +
                       std::to_string(args.small_image) + "^2, " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       " hardware thread(s)");

  const std::uint64_t reference = direct_render(w, 0).digest();

  // One observability session for the whole binary. It stays DISABLED during
  // the scaling sweep and the overhead measurement (compiled in, one branch
  // per emit site) and is enabled only for the final --trace capture run.
  obs::TraceSession session;
  session.set_enabled(false);

  auto make_spec = [&](int copies) {
    viz::IsoAppSpec spec;
    spec.workload = w;
    spec.config = viz::PipelineConfig::kRE_Ra_M;
    spec.hsr = viz::HsrAlgorithm::kActivePixel;
    spec.data_hosts = {{0, 1}};
    spec.raster_hosts = {{1, copies}};
    spec.merge_host = 2;
    spec.keep_images = false;
    return spec;
  };

  std::vector<ScalePoint> points;
  viz::NativeRenderRun last;
  exp::Table table({"Ra copies", "threads", "wall s/uow", "speedup", "image"});
  for (int copies : {1, 2, 4, 8}) {
    viz::IsoAppSpec spec = make_spec(copies);

    const viz::NativeRenderRun run =
        viz::run_iso_app_native(spec, cfg, args.uows);
    last = run;

    ScalePoint pt;
    pt.ra_copies = copies;
    pt.threads = 1 + copies + 1;
    pt.wall_s = run.avg;
    pt.speedup = points.empty() ? 1.0 : points.front().wall_s / run.avg;
    pt.image_ok = !run.sink->digests.empty() && run.sink->digests[0] == reference;
    points.push_back(pt);

    table.row({std::to_string(pt.ra_copies), std::to_string(pt.threads),
               exp::Table::num(pt.wall_s, 4), exp::Table::num(pt.speedup, 2),
               pt.image_ok ? "ok" : "MISMATCH"});
  }
  exp::print_rule();
  std::printf(
      "Speedups are bounded by the machine's core count; on a single core\n"
      "the curve is flat and only shows the engine's threading overhead.\n");

  // Tracing-overhead check (ISSUE acceptance): the same 2-copy render with a
  // trace session attached but disabled must cost within noise of a run with
  // no session at all — every emit site reduces to one relaxed atomic load
  // and branch. Short wall-clock runs on a loaded machine are noisy, so the
  // two variants are interleaved over several repetitions and compared by
  // their MINIMUM per-timestep time (the standard scheduler-noise filter).
  double base_s = 0.0, disabled_s = 0.0;
  {
    constexpr int kReps = 8;
    const int uows = args.uows < 5 ? 5 : args.uows;
    auto measure = [&](bool with_session) {
      viz::IsoAppSpec spec = make_spec(2);
      if (with_session) spec.trace = &session;  // enabled() == false here
      return viz::run_iso_app_native(spec, cfg, uows).avg;
    };
    for (int rep = 0; rep < kReps; ++rep) {
      // Alternate the order so slow drift in machine load cancels out.
      const bool session_first = (rep % 2) != 0;
      const double first = measure(session_first);
      const double second = measure(!session_first);
      const double b = session_first ? second : first;
      const double d = session_first ? first : second;
      if (rep == 0 || b < base_s) base_s = b;
      if (rep == 0 || d < disabled_s) disabled_s = d;
    }
  }
  const double overhead_pct = base_s > 0.0
                                  ? (disabled_s - base_s) / base_s * 100.0
                                  : 0.0;
  std::printf("tracing disabled-path overhead: %.2f%% (%.4fs -> %.4fs)\n",
              overhead_pct, base_s, disabled_s);

  // Optional Perfetto capture of one 4-copy render in the same session.
  if (!args.trace_path.empty()) {
    session.set_enabled(true);
    viz::IsoAppSpec spec = make_spec(4);
    spec.trace = &session;
    (void)viz::run_iso_app_native(spec, cfg, /*uows=*/1);
    session.set_enabled(false);
    exp::maybe_write_trace(args, session);
  }

  obs::MetricsRegistry reg;
  reg.set("hardware_threads",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  reg.set("trace_disabled_overhead_pct", overhead_pct);
  for (const ScalePoint& pt : points) {
    const std::string k = "sweep.copies" + std::to_string(pt.ra_copies);
    reg.set(k + ".wall_s", pt.wall_s);
    reg.set(k + ".speedup", pt.speedup);
    reg.set(k + ".image_ok", static_cast<std::int64_t>(pt.image_ok ? 1 : 0));
  }
  core::publish(last.metrics, reg, "exec");  // metrics of the 8-copy run

  // Scaling detail rides along as an extra top-level member.
  std::string extra = "\"policy\":\"dd\",\"scaling\":[";
  char buf[160];
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& pt = points[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ra_copies\":%d,\"threads\":%d,\"wall_s\":%.6f,"
                  "\"speedup\":%.4f,\"image_ok\":%s}",
                  i ? "," : "", pt.ra_copies, pt.threads, pt.wall_s, pt.speedup,
                  pt.image_ok ? "true" : "false");
    extra += buf;
  }
  extra += "]";
  exp::print_json("native_pipeline", reg, extra);
  return 0;
}
