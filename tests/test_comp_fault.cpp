#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "comp/app.hpp"
#include "comp/tile_map.hpp"
#include "core/runtime.hpp"
#include "exec/engine.hpp"
#include "net/process.hpp"
#include "test_util.hpp"
#include "viz/app.hpp"

// Fault injection against the tile compositor: the FaultHarness SIGKILLs a
// tile-OWNER rank and the survivors must re-own exactly that rank's tiles
// through the deterministic dead-owner probe (TileMap::owner == the
// kTileOwner writer re-probe of retained fragment buffers).
//
//  - Killed at a UOW boundary, the victim consumed nothing of the new UOW:
//    every fragment re-routes or retransmits to the failover owner and the
//    gathered image is BIT-IDENTICAL to the clean reference — zero partial
//    tiles.
//  - Killed mid-emission, fragments the victim consumed before dying are
//    gone (their producers' retention was already credited away): the
//    completion ledger at the gather filter reports those tiles partial.
//    Partial tiles are a SUBSET of the victim's tiles, and every pixel
//    outside them still matches the reference exactly.
//
// NOTE on threading: the parent must be single-threaded whenever it forks
// rank processes (the TSan job runs this binary), so references are
// computed with test_util's thread-free direct_render, never a native
// engine run, before the forks.

namespace dc {
namespace {

// ---------------------------------------------------------------------------
// Child-side rank main + text result files (a killed rank never writes its
// file; the parent reads the gather rank's).
// ---------------------------------------------------------------------------

struct ChildParams {
  const viz::IsoAppSpec* spec = nullptr;
  const comp::TiledCompSpec* comp = nullptr;
  core::RuntimeConfig cfg;
  int uows = 1;
  std::string dir;
};

int tiled_rank_main(net::RankEnv& env, const ChildParams& pp) {
  std::vector<net::Socket> peers = net::connect_mesh(env, 30.0);
  env.listener.close();

  comp::TiledApp app = comp::build_tiled_iso_app(*pp.spec, *pp.comp);
  core::RuntimeConfig cfg = pp.cfg;
  cfg.detection = core::FailureDetection::kMembership;
  exec::DistributedOptions dopts;
  dopts.barrier_timeout_s = 30.0;
  dopts.heartbeat_interval_s = 0.02;
  dopts.peer_timeout_s = 0.5;
  exec::Engine eng(app.app.graph, app.app.placement, cfg, env.rank,
                   env.num_ranks, std::move(peers), dopts);
  if (env.fault != nullptr) eng.set_fault_cell(env.fault);

  std::vector<exec::UowResult> results;
  for (int u = 0; u < pp.uows; ++u) {
    results.push_back(eng.run_uow_outcome());
    if (results.back().status == exec::RunStatus::kTransportError) break;
  }
  eng.shutdown();

  std::ofstream out(pp.dir + "/rank" + std::to_string(env.rank) + ".txt");
  for (const exec::UowResult& r : results) {
    out << "uow " << static_cast<int>(r.status) << ' '
        << static_cast<int>(r.outcome.status) << ' ' << r.outcome.failovers
        << ' ' << r.outcome.buffers_lost << '\n';
  }
  out << "digests " << app.app.sink->digests.size();
  for (std::uint64_t d : app.app.sink->digests) out << ' ' << d;
  out << '\n';
  {
    std::lock_guard<std::mutex> lk(app.stats->mu);
    out << "partial " << app.stats->last_partial_tiles.size();
    for (int t : app.stats->last_partial_tiles) out << ' ' << t;
    out << '\n';
  }
  for (std::size_t i = 0; i < app.app.sink->images.size(); ++i) {
    const viz::Image& img = app.app.sink->images[i];
    out << "image " << i << ' ' << img.width() << ' ' << img.height();
    for (std::uint32_t px : img.pixels()) out << ' ' << px;
    out << '\n';
  }
  out.flush();
  return out.good() ? 0 : 10;
}

struct UowRec {
  int run_status = -1;
  int outcome_status = -1;
  std::uint64_t failovers = 0;
  std::uint64_t buffers_lost = 0;
};

struct RankReport {
  bool present = false;
  std::vector<UowRec> uows;
  std::vector<std::uint64_t> digests;
  std::vector<int> partial_tiles;  ///< most recent UOW, gather rank only
  std::vector<viz::Image> images;
};

RankReport read_report(const std::string& dir, int rank) {
  RankReport rep;
  std::ifstream in(dir + "/rank" + std::to_string(rank) + ".txt");
  if (!in) return rep;
  rep.present = true;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "uow") {
      UowRec r;
      ls >> r.run_status >> r.outcome_status >> r.failovers >> r.buffers_lost;
      rep.uows.push_back(r);
    } else if (tag == "digests") {
      std::size_t n = 0;
      ls >> n;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t d = 0;
        ls >> d;
        rep.digests.push_back(d);
      }
    } else if (tag == "partial") {
      std::size_t n = 0;
      ls >> n;
      for (std::size_t i = 0; i < n; ++i) {
        int t = -1;
        ls >> t;
        rep.partial_tiles.push_back(t);
      }
    } else if (tag == "image") {
      std::size_t idx = 0;
      int w = 0, h = 0;
      ls >> idx >> w >> h;
      viz::Image img(w, h);
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          std::uint32_t px = 0;
          ls >> px;
          img.set(x, y, px);
        }
      }
      rep.images.push_back(std::move(img));
    }
  }
  return rep;
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/dc_comp_fault_XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    if (p == nullptr) throw std::runtime_error("mkdtemp failed");
    path = p;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Shared topology: rank 0 holds the data, the producers, and the gather;
/// ranks 1 and 2 each own half the tiles (owner index = rank - 1).
struct CompFault : ::testing::Test {
  static constexpr int kRanks = 3;
  static constexpr int kTilePx = 16;

  test::TestDataset ds = test::make_dataset(24, 3, 16);
  viz::IsoAppSpec s;
  comp::TiledCompSpec comp;

  void SetUp() override {
    ds.store->place_uniform({data::FileLocation{0, 0}});
    s.workload = test::make_workload(ds, 48, 48);
    s.config = viz::PipelineConfig::kRERa_M;
    s.hsr = viz::HsrAlgorithm::kActivePixel;
    s.data_hosts = viz::one_each({0});
    s.merge_host = 0;
    comp.tile_px = kTilePx;
    comp.owner_hosts = {1, 2};
    comp.gather_host = 0;
  }

  [[nodiscard]] comp::TileMap map() const {
    return comp::TileMap(
        comp::TileLayout{s.workload.width, s.workload.height, comp.tile_px},
        static_cast<int>(comp.owner_hosts.size()), comp.map_seed);
  }
};

// ---------------------------------------------------------------------------
// Clean run under membership detection: enabling fault tolerance must not
// perturb a single pixel, and the completion ledger closes every tile.
// ---------------------------------------------------------------------------

TEST_F(CompFault, CleanRunUnderFaultToleranceIsBitIdentical) {
  TempDir dir;
  ChildParams pp;
  pp.spec = &s;
  pp.comp = &comp;
  pp.cfg.policy = core::Policy::kDemandDriven;
  pp.uows = 1;
  pp.dir = dir.path;
  const auto st = net::run_local_ranks(
      kRanks, [&pp](net::RankEnv& env) { return tiled_rank_main(env, pp); },
      net::LaunchOptions{/*timeout_s=*/90.0});

  for (int r = 0; r < kRanks; ++r) {
    ASSERT_TRUE(st[static_cast<std::size_t>(r)].ok())
        << "rank " << r
        << " stderr: " << st[static_cast<std::size_t>(r)].stderr_output;
  }
  const RankReport rep = read_report(dir.path, /*rank=*/0);
  ASSERT_TRUE(rep.present);
  ASSERT_EQ(rep.uows.size(), 1u);
  EXPECT_EQ(rep.uows[0].run_status, 0);
  EXPECT_EQ(rep.uows[0].failovers, 0u);
  EXPECT_TRUE(rep.partial_tiles.empty());
  ASSERT_EQ(rep.digests.size(), 1u);
  EXPECT_EQ(rep.digests[0], test::direct_render(s.workload, 0).digest());
}

// ---------------------------------------------------------------------------
// Owner killed at a UOW boundary: UOW 0 completed clean before the death;
// in UOW 1 the victim consumed NOTHING (the kill lands inside its run_uow
// entry), so every one of its fragments re-probes to the surviving owner —
// the image is bit-identical to the reference with ZERO partial tiles, and
// the re-owned tiles are exactly the map's dead-mask prediction.
// ---------------------------------------------------------------------------

TEST_F(CompFault, BoundaryKillReownsAllTilesBitIdentical) {
  constexpr int kVictimRank = 2;  // owner index 1
  s.workload.vary_view_per_uow = true;

  TempDir dir;
  ChildParams pp;
  pp.spec = &s;
  pp.comp = &comp;
  pp.cfg.policy = core::Policy::kDemandDriven;
  pp.uows = 2;
  pp.dir = dir.path;
  net::FaultHarness h(net::LaunchOptions{/*timeout_s=*/90.0});
  h.kill_rank(kVictimRank, net::FaultTrigger::kUow, 1);
  const auto st = h.run(
      kRanks, [&pp](net::RankEnv& env) { return tiled_rank_main(env, pp); });

  ASSERT_EQ(st.size(), static_cast<std::size_t>(kRanks));
  EXPECT_EQ(st[kVictimRank].term_signal, SIGKILL);
  EXPECT_EQ(st[kVictimRank].faults_injected, 1);
  for (int r : {0, 1}) {
    ASSERT_TRUE(st[static_cast<std::size_t>(r)].ok())
        << "rank " << r
        << " stderr: " << st[static_cast<std::size_t>(r)].stderr_output;
  }

  const RankReport rep = read_report(dir.path, /*rank=*/0);
  ASSERT_TRUE(rep.present);
  ASSERT_EQ(rep.uows.size(), 2u);
  // UOW 0: fully clean. UOW 1: completes degraded with exactly one failover.
  EXPECT_EQ(rep.uows[0].run_status, 0);
  EXPECT_EQ(rep.uows[0].failovers, 0u);
  EXPECT_EQ(rep.uows[1].run_status, 0);
  EXPECT_EQ(rep.uows[1].failovers, 1u);

  // Both frames bit-identical to the runtime-free reference; no tile was
  // reported partial even in the failover UOW.
  ASSERT_EQ(rep.digests.size(), 2u);
  EXPECT_EQ(rep.digests[0], test::direct_render(s.workload, 0).digest());
  EXPECT_EQ(rep.digests[1], test::direct_render(s.workload, 1).digest());
  EXPECT_TRUE(rep.partial_tiles.empty())
      << rep.partial_tiles.size() << " partial tiles after boundary kill";

  // The dead-mask map re-owns exactly the victim's tiles onto the survivor.
  const comp::TileMap m = map();
  const std::uint64_t dead = 1ull << 1;  // owner index 1 == rank 2
  for (int t : m.tiles_of(/*owner_index=*/1)) {
    EXPECT_EQ(m.owner(t, dead), 0);
  }
  for (int t : m.tiles_of(/*owner_index=*/0)) {
    EXPECT_EQ(m.owner(t, dead), 0);  // survivors keep their own tiles
  }
}

// ---------------------------------------------------------------------------
// Owner killed mid-gather-emission (after its first remote DATA frame): the
// fragments it consumed died with it, so its unsent tiles surface as
// kPartial at the gather filter. Partial tiles must be a SUBSET of the
// victim's tiles, and every pixel outside them must still match the
// reference bit for bit — the blast radius of an owner death is exactly the
// tiles it owned.
// ---------------------------------------------------------------------------

TEST_F(CompFault, MidEmissionKillConfinesDamageToVictimTiles) {
  constexpr int kVictimRank = 2;  // owner index 1
  // One dense tile block per gather buffer: the victim needs several DATA
  // frames to hand over its tiles, and the kill lands after the first.
  comp.gather_buffer_bytes = 1;

  // The victim must own at least two tiles for the scenario to bite (the
  // map is deterministic, so this is a hard precondition, not a race).
  const comp::TileMap m = map();
  const std::vector<int> victim_tiles = m.tiles_of(/*owner_index=*/1);
  ASSERT_GE(victim_tiles.size(), 2u);

  TempDir dir;
  ChildParams pp;
  pp.spec = &s;
  pp.comp = &comp;
  pp.cfg.policy = core::Policy::kDemandDriven;
  pp.uows = 1;
  pp.dir = dir.path;
  net::FaultHarness h(net::LaunchOptions{/*timeout_s=*/90.0});
  h.kill_rank(kVictimRank, net::FaultTrigger::kFrames, 1);
  const auto st = h.run(
      kRanks, [&pp](net::RankEnv& env) { return tiled_rank_main(env, pp); });

  ASSERT_EQ(st.size(), static_cast<std::size_t>(kRanks));
  EXPECT_EQ(st[kVictimRank].term_signal, SIGKILL);
  EXPECT_EQ(st[kVictimRank].faults_injected, 1);
  for (int r : {0, 1}) {
    ASSERT_TRUE(st[static_cast<std::size_t>(r)].ok())
        << "rank " << r
        << " stderr: " << st[static_cast<std::size_t>(r)].stderr_output;
  }

  const RankReport rep = read_report(dir.path, /*rank=*/0);
  ASSERT_TRUE(rep.present);
  ASSERT_EQ(rep.uows.size(), 1u);
  EXPECT_EQ(rep.uows[0].run_status, 0);  // completes, degraded — never hangs
  EXPECT_EQ(rep.uows[0].failovers, 1u);

  // Partial tiles are confined to the victim's ownership.
  const std::set<int> owned(victim_tiles.begin(), victim_tiles.end());
  for (int t : rep.partial_tiles) {
    EXPECT_TRUE(owned.count(t) != 0)
        << "tile " << t << " went partial but rank " << kVictimRank
        << " never owned it";
  }

  // Every pixel OUTSIDE the partial tiles matches the reference exactly.
  const viz::Image reference = test::direct_render(s.workload, 0);
  ASSERT_EQ(rep.images.size(), 1u);
  const viz::Image& img = rep.images[0];
  ASSERT_EQ(img.width(), reference.width());
  ASSERT_EQ(img.height(), reference.height());
  const std::set<int> partial(rep.partial_tiles.begin(),
                              rep.partial_tiles.end());
  const comp::TileLayout& layout = m.layout();
  std::size_t mismatches = 0;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      const auto index = static_cast<std::uint32_t>(y) *
                             static_cast<std::uint32_t>(img.width()) +
                         static_cast<std::uint32_t>(x);
      if (partial.count(layout.tile_of(index)) != 0) continue;
      if (img.at(x, y) != reference.at(x, y)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u)
      << "pixels outside the partial tiles diverged from the clean render";
}

}  // namespace
}  // namespace dc
