#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/filter.hpp"
#include "core/graph.hpp"
#include "core/metrics.hpp"
#include "core/placement.hpp"
#include "core/runtime.hpp"
#include "exec/engine.hpp"
#include "net/process.hpp"
#include "net/transport.hpp"
#include "sim/cluster.hpp"
#include "sim/simulation.hpp"
#include "test_util.hpp"

// Process-level fault injection for the distributed runtime: the
// FaultHarness SIGKILLs / SIGSTOPs rank processes at deterministic logical
// trigger points (UOW entry, processed-buffer counts — child-reported over
// a control pipe, never wall clocks), and the surviving ranks must finish
// with the structured per-UOW outcomes the SIMULATOR produces for the
// equivalent fault plan: same UowStatus, same failover counts, same
// dead-filter sets. The stamped payload pipeline additionally proves
// at-least-once delivery across the failover (retention + retransmit).
//
// NOTE on threading: the parent must be single-threaded whenever it forks
// rank processes (the TSan job runs this binary), so there is no
// exec::Watchdog in the parent — the harness group deadline IS the
// watchdog, and the simulator goldens are computed AFTER the forked run.

namespace dc {
namespace {

constexpr int kBuffers = 48;

// ---------------------------------------------------------------------------
// Stamped pipeline, shared shape between the simulator golden and the
// distributed run: a source on host 0 stamps every buffer with a sequence
// number; one worker copy on each remaining host records which stamps it
// consumed.
// ---------------------------------------------------------------------------

class StampedSource : public core::SourceFilter {
 public:
  explicit StampedSource(int count) : count_(count) {}
  bool step(core::FilterContext& ctx) override {
    if (i_ >= count_) return false;
    ctx.charge(1000.0);
    core::Buffer b = ctx.make_buffer(0);
    b.push(static_cast<std::uint32_t>(i_));
    ctx.write(0, b);
    ++i_;
    return i_ < count_;
  }

 private:
  int count_;
  int i_ = 0;
};

/// Simulator-side worker: records stamps into one flat set.
class SimWorker : public core::Filter {
 public:
  SimWorker(std::shared_ptr<std::set<std::uint32_t>> seen, double ops)
      : seen_(std::move(seen)), ops_(ops) {}
  void process_buffer(core::FilterContext& ctx, int,
                      const core::Buffer& buf) override {
    ctx.charge(ops_);
    seen_->insert(buf.records<std::uint32_t>()[0]);
  }

 private:
  std::shared_ptr<std::set<std::uint32_t>> seen_;
  double ops_;
};

/// Distributed-side worker: records stamps per UOW, then reports one
/// processed buffer to the fault cell — so kBuffers triggers fire AFTER the
/// Nth stamp was recorded, making "at most N stamps die with this rank" a
/// hard bound instead of a race.
///
/// kBuffers triggers count UOW 0 only, so a kill aimed at UOW 0 can never
/// land in a later one. Under DD a descheduled victim may receive fewer
/// buffers than the trigger's count, so its end of UOW 0 fires any trigger
/// still pending. That is still mid-UOW: the rank's DONE for UOW 0 is only
/// sent after its process_eow returns.
class NetWorker : public core::Filter {
 public:
  NetWorker(std::shared_ptr<std::map<int, std::set<std::uint32_t>>> stamps,
            std::shared_ptr<std::mutex> mu, std::shared_ptr<int> cur_uow,
            net::FaultCell* cell)
      : stamps_(std::move(stamps)),
        mu_(std::move(mu)),
        cur_uow_(std::move(cur_uow)),
        cell_(cell) {}
  void process_buffer(core::FilterContext&, int,
                      const core::Buffer& buf) override {
    {
      std::lock_guard<std::mutex> lk(*mu_);
      (*stamps_)[*cur_uow_].insert(buf.records<std::uint32_t>()[0]);
    }
    if (cell_ != nullptr && *cur_uow_ == 0) {
      cell_->advance(net::FaultTrigger::kBuffers, 1);
    }
  }
  void process_eow(core::FilterContext&) override {
    if (cell_ != nullptr && *cur_uow_ == 0) {
      cell_->advance(net::FaultTrigger::kBuffers, kBuffers);
    }
  }

 private:
  std::shared_ptr<std::map<int, std::set<std::uint32_t>>> stamps_;
  std::shared_ptr<std::mutex> mu_;
  std::shared_ptr<int> cur_uow_;
  net::FaultCell* cell_;
};

std::set<std::uint32_t> all_stamps(int buffers) {
  std::set<std::uint32_t> s;
  for (int i = 0; i < buffers; ++i) s.insert(static_cast<std::uint32_t>(i));
  return s;
}

// ---------------------------------------------------------------------------
// Simulator golden: the same pipeline under core::Runtime, failing the
// designated hosts before the designated UOWs. The distributed runtime's
// structured outcomes must match these bit for bit wherever the fault plan
// is UOW-boundary-equivalent.
// ---------------------------------------------------------------------------

std::vector<core::UowOutcome> sim_goldens(
    core::Policy pol, int num_ranks, int uows, int buffers,
    const std::vector<std::pair<int, int>>& fail_before /* (uow, host) */) {
  sim::Simulation s;
  sim::Topology topo(s);
  test::add_plain_nodes(topo, num_ranks);
  auto seen = std::make_shared<std::set<std::uint32_t>>();
  core::Graph g;
  const int src = g.add_source(
      "src", [=] { return std::make_unique<StampedSource>(buffers); });
  const int wrk = g.add_filter(
      "work", [seen] { return std::make_unique<SimWorker>(seen, 1e6); });
  g.connect(src, 0, wrk, 0);
  core::Placement p;
  p.place(src, 0);
  for (int h = 1; h < num_ranks; ++h) p.place(wrk, h);
  core::RuntimeConfig cfg;
  cfg.policy = pol;
  cfg.detection = core::FailureDetection::kMembership;
  core::Runtime rt(topo, g, p, cfg);
  std::vector<core::UowOutcome> out;
  for (int u = 0; u < uows; ++u) {
    for (const auto& [at, host] : fail_before) {
      if (at == u) topo.fail_host(host);
    }
    out.push_back(rt.run_uow_outcome());
  }
  return out;
}

void expect_outcome_eq(const core::UowOutcome& got,
                       const core::UowOutcome& want, const std::string& where) {
  EXPECT_EQ(static_cast<int>(got.status), static_cast<int>(want.status))
      << where;
  std::vector<int> gd = got.dead_filters, wd = want.dead_filters;
  std::sort(gd.begin(), gd.end());
  std::sort(wd.begin(), wd.end());
  EXPECT_EQ(gd, wd) << where;
  EXPECT_EQ(got.failovers, want.failovers) << where;
  EXPECT_EQ(got.retransmits, want.retransmits) << where;
  EXPECT_EQ(got.buffers_lost, want.buffers_lost) << where;
  EXPECT_EQ(got.buffers_duplicated, want.buffers_duplicated) << where;
}

// ---------------------------------------------------------------------------
// Child-side rank main + the text result files it reports through (a killed
// rank simply never writes its file; the parent reads the survivors').
// ---------------------------------------------------------------------------

struct ChildParams {
  core::Policy policy = core::Policy::kRoundRobin;
  int uows = 1;
  int buffers = kBuffers;
  double peer_timeout_s = 2.0;
  bool replace_dead = false;
  std::string dir;
};

int stamped_rank_main(net::RankEnv& env, const ChildParams& pp) {
  std::vector<net::Socket> peers = net::connect_mesh(env, 30.0);
  env.listener.close();

  auto cur_uow = std::make_shared<int>(0);
  auto stamps = std::make_shared<std::map<int, std::set<std::uint32_t>>>();
  auto mu = std::make_shared<std::mutex>();
  net::FaultCell* cell = env.fault;

  core::Graph g;
  const int buffers = pp.buffers;
  const int src = g.add_source(
      "src", [buffers] { return std::make_unique<StampedSource>(buffers); });
  const int wrk = g.add_filter("work", [=] {
    return std::make_unique<NetWorker>(stamps, mu, cur_uow, cell);
  });
  g.connect(src, 0, wrk, 0);
  core::Placement p;
  p.place(src, 0, 1);
  for (int h = 1; h < env.num_ranks; ++h) p.place(wrk, h, 1);

  core::RuntimeConfig cfg;
  cfg.policy = pp.policy;
  cfg.detection = core::FailureDetection::kMembership;
  exec::DistributedOptions dopts;
  dopts.barrier_timeout_s = 20.0;
  dopts.heartbeat_interval_s = 0.02;
  dopts.peer_timeout_s = pp.peer_timeout_s;
  dopts.replace_dead = pp.replace_dead;
  exec::Engine eng(g, p, cfg, env.rank, env.num_ranks, std::move(peers), dopts);
  if (cell != nullptr) eng.set_fault_cell(cell);

  std::vector<exec::UowResult> results;
  for (int u = 0; u < pp.uows; ++u) {
    *cur_uow = u;
    results.push_back(eng.run_uow_outcome());
    if (results.back().status == exec::RunStatus::kTransportError) break;
  }
  eng.shutdown();
  const core::FaultMetrics fm = eng.metrics().faults;

  std::ofstream out(pp.dir + "/rank" + std::to_string(env.rank) + ".txt");
  for (const exec::UowResult& r : results) {
    out << "uow " << static_cast<int>(r.status) << ' '
        << static_cast<int>(r.outcome.status) << ' ' << r.outcome.failovers
        << ' ' << r.outcome.retransmits << ' ' << r.outcome.buffers_lost
        << ' ' << r.outcome.buffers_duplicated << ' '
        << r.outcome.dead_filters.size();
    for (int f : r.outcome.dead_filters) out << ' ' << f;
    out << '\n';
  }
  for (const auto& [u, set] : *stamps) {
    out << "stamps " << u << ' ' << set.size();
    for (std::uint32_t v : set) out << ' ' << v;
    out << '\n';
  }
  out << "faults " << fm.hosts_failed << ' ' << fm.failovers << ' '
      << fm.retransmits << ' ' << fm.buffers_lost << ' '
      << fm.buffers_duplicated << '\n';
  out.flush();
  return out.good() ? 0 : 10;
}

struct UowRec {
  int run_status = -1;  ///< exec::RunStatus as int
  core::UowOutcome outcome;
};

struct RankReport {
  bool present = false;
  std::vector<UowRec> uows;
  std::map<int, std::set<std::uint32_t>> stamps;
  std::uint64_t hosts_failed = 0;
  std::uint64_t cum_failovers = 0;
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
      int ostatus = 0;
      std::size_t ndead = 0;
      ls >> r.run_status >> ostatus >> r.outcome.failovers >>
          r.outcome.retransmits >> r.outcome.buffers_lost >>
          r.outcome.buffers_duplicated >> ndead;
      r.outcome.status = static_cast<core::UowStatus>(ostatus);
      for (std::size_t i = 0; i < ndead; ++i) {
        int f = -1;
        ls >> f;
        r.outcome.dead_filters.push_back(f);
      }
      rep.uows.push_back(std::move(r));
    } else if (tag == "stamps") {
      int u = 0;
      std::size_t n = 0;
      ls >> u >> n;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t v = 0;
        ls >> v;
        rep.stamps[u].insert(v);
      }
    } else if (tag == "faults") {
      std::uint64_t rt = 0, lost = 0, dup = 0;
      ls >> rep.hosts_failed >> rep.cum_failovers >> rt >> lost >> dup;
    }
  }
  return rep;
}

/// Union of one UOW's recorded stamps across the given rank reports.
std::set<std::uint32_t> stamp_union(const std::vector<RankReport>& reps,
                                    int uow) {
  std::set<std::uint32_t> u;
  for (const RankReport& r : reps) {
    auto it = r.stamps.find(uow);
    if (it != r.stamps.end()) u.insert(it->second.begin(), it->second.end());
  }
  return u;
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/dc_net_fault_XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    if (p == nullptr) throw std::runtime_error("mkdtemp failed");
    path = p;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

const std::vector<core::Policy> kPolicies = {
    core::Policy::kRoundRobin, core::Policy::kWeightedRoundRobin,
    core::Policy::kDemandDriven};

const char* policy_name(core::Policy p) {
  switch (p) {
    case core::Policy::kRoundRobin: return "RR";
    case core::Policy::kWeightedRoundRobin: return "WRR";
    case core::Policy::kDemandDriven: return "DD";
    case core::Policy::kTileOwner: return "TILE";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Harness mechanics: stderr capture, restart generations, freeze/resume.
// ---------------------------------------------------------------------------

TEST(NetFaultHarness, CapturesPerRankStderrAndExitCodes) {
  const auto st = net::run_local_ranks(
      2,
      [](net::RankEnv& env) {
        std::fprintf(stderr, "rank %d reporting\n", env.rank);
        return env.rank == 0 ? 0 : 7;
      },
      net::LaunchOptions{/*timeout_s=*/30.0});
  ASSERT_EQ(st.size(), 2u);
  EXPECT_EQ(st[0].exit_code, 0);
  EXPECT_EQ(st[1].exit_code, 7);
  EXPECT_NE(st[0].stderr_output.find("rank 0 reporting"), std::string::npos);
  EXPECT_NE(st[1].stderr_output.find("rank 1 reporting"), std::string::npos);
}

TEST(NetFaultHarness, KillWithRestartRespawnsNextGeneration) {
  net::FaultHarness h(net::LaunchOptions{/*timeout_s=*/30.0});
  h.kill_rank(1, net::FaultTrigger::kBuffers, 1, /*restart=*/true);
  const auto st = h.run(2, [](net::RankEnv& env) {
    if (env.rank == 1 && env.generation == 0) {
      // Blocks inside the trigger until the parent's SIGKILL lands.
      if (env.fault != nullptr) {
        env.fault->advance(net::FaultTrigger::kBuffers, 1);
      }
      return 13;  // unreachable in generation 0
    }
    return 0;
  });
  ASSERT_EQ(st.size(), 2u);
  EXPECT_EQ(st[0].exit_code, 0);
  EXPECT_EQ(st[1].exit_code, 0) << "generation 1 should exit clean";
  EXPECT_EQ(st[1].restarts, 1);
  EXPECT_EQ(st[1].faults_injected, 1);
}

TEST(NetFaultHarness, StopThenResumeContinuesTheRank) {
  net::FaultHarness h(net::LaunchOptions{/*timeout_s=*/30.0});
  h.stop_rank(1, net::FaultTrigger::kBuffers, 1, /*resume_after_s=*/0.3);
  const auto st = h.run(2, [](net::RankEnv& env) {
    if (env.rank == 1 && env.fault != nullptr) {
      env.fault->advance(net::FaultTrigger::kBuffers, 1);  // frozen ~0.3 s
    }
    return 0;
  });
  ASSERT_EQ(st.size(), 2u);
  EXPECT_TRUE(st[0].ok());
  EXPECT_TRUE(st[1].ok()) << "resumed rank must run to completion";
  EXPECT_EQ(st[1].faults_injected, 1);
}

// ---------------------------------------------------------------------------
// Fault-tolerant mode with no faults: every UOW is kComplete with all-zero
// fault counters and complete payload — enabling detection must not perturb
// a healthy run.
// ---------------------------------------------------------------------------

TEST(NetFault, CleanRunUnderFaultToleranceIsComplete) {
  for (core::Policy pol : kPolicies) {
    SCOPED_TRACE(policy_name(pol));
    TempDir dir;
    ChildParams pp;
    pp.policy = pol;
    pp.uows = 2;
    pp.dir = dir.path;
    const auto st = net::run_local_ranks(
        3, [&pp](net::RankEnv& env) { return stamped_rank_main(env, pp); },
        net::LaunchOptions{/*timeout_s=*/60.0});
    std::vector<RankReport> reps;
    for (int r = 0; r < 3; ++r) {
      ASSERT_TRUE(st[static_cast<std::size_t>(r)].ok())
          << "rank " << r << " exit " << st[static_cast<std::size_t>(r)].exit_code
          << " stderr: " << st[static_cast<std::size_t>(r)].stderr_output;
      reps.push_back(read_report(dir.path, r));
      ASSERT_TRUE(reps.back().present);
    }
    for (const RankReport& rep : reps) {
      ASSERT_EQ(rep.uows.size(), 2u);
      for (const UowRec& u : rep.uows) {
        EXPECT_EQ(u.run_status, 0);  // kComplete
        EXPECT_EQ(u.outcome.status, core::UowStatus::kComplete);
        EXPECT_EQ(u.outcome.failovers, 0u);
        EXPECT_EQ(u.outcome.retransmits, 0u);
        EXPECT_EQ(u.outcome.buffers_lost, 0u);
        EXPECT_EQ(u.outcome.buffers_duplicated, 0u);
      }
      EXPECT_EQ(rep.hosts_failed, 0u);
    }
    for (int u = 0; u < 2; ++u) {
      EXPECT_EQ(stamp_union(reps, u), all_stamps(kBuffers)) << "uow " << u;
    }
  }
}

// ---------------------------------------------------------------------------
// The acceptance scenario: SIGKILL one of four ranks mid-UOW. The survivors
// complete the UOW degraded (failover == the simulator's), lose at most the
// stamps the victim had already consumed, and every LATER UOW's outcome is
// bit-identical to the simulator's golden outcome for fail_host before that
// UOW — under all three policies.
// ---------------------------------------------------------------------------

TEST(NetFault, KillOneOfFourRanksMidUowMatchesSimulatorGoldens) {
  constexpr int kRanks = 4, kUows = 3, kVictim = 2, kKillAfter = 5;
  for (core::Policy pol : kPolicies) {
    SCOPED_TRACE(policy_name(pol));
    TempDir dir;
    ChildParams pp;
    pp.policy = pol;
    pp.uows = kUows;
    pp.dir = dir.path;
    net::FaultHarness h(net::LaunchOptions{/*timeout_s=*/90.0});
    h.kill_rank(kVictim, net::FaultTrigger::kBuffers, kKillAfter);
    const auto st = h.run(
        kRanks, [&pp](net::RankEnv& env) { return stamped_rank_main(env, pp); });

    // The victim died of the injected SIGKILL, nobody hung.
    ASSERT_EQ(st.size(), static_cast<std::size_t>(kRanks));
    EXPECT_EQ(st[kVictim].term_signal, SIGKILL);
    EXPECT_EQ(st[kVictim].faults_injected, 1);
    std::vector<RankReport> reps;
    for (int r = 0; r < kRanks; ++r) {
      if (r == kVictim) continue;
      ASSERT_TRUE(st[static_cast<std::size_t>(r)].ok())
          << "rank " << r
          << " stderr: " << st[static_cast<std::size_t>(r)].stderr_output;
      reps.push_back(read_report(dir.path, r));
      ASSERT_TRUE(reps.back().present) << "rank " << r;
    }

    // Goldens AFTER the forked run (the parent must stay single-threaded
    // until every fork happened).
    const auto golden =
        sim_goldens(pol, kRanks, kUows, kBuffers, {{1, kVictim}});

    for (const RankReport& rep : reps) {
      ASSERT_EQ(rep.uows.size(), static_cast<std::size_t>(kUows));
      // UOW 0 (the kill lands here): degraded completion with exactly one
      // failover. Retransmit/loss counts depend on how much of the credit
      // window was in flight at detection — structural asserts only.
      EXPECT_EQ(rep.uows[0].run_status, 0);
      EXPECT_EQ(rep.uows[0].outcome.status, core::UowStatus::kDegraded);
      EXPECT_EQ(rep.uows[0].outcome.failovers, 1u);
      EXPECT_TRUE(rep.uows[0].outcome.dead_filters.empty());
      // UOW 1..2: admission-only re-counts — full-field golden parity.
      for (int u = 1; u < kUows; ++u) {
        EXPECT_EQ(rep.uows[static_cast<std::size_t>(u)].run_status, 0);
        expect_outcome_eq(rep.uows[static_cast<std::size_t>(u)].outcome,
                          golden[static_cast<std::size_t>(u)],
                          std::string(policy_name(pol)) + " uow " +
                              std::to_string(u));
      }
      EXPECT_EQ(rep.hosts_failed, 1u);
    }
    // Payload: the victim recorded at most kKillAfter stamps before dying
    // (the trigger fires after the Nth insert), so the survivors hold the
    // rest; later UOWs run without the dead rank and lose nothing.
    EXPECT_GE(stamp_union(reps, 0).size(),
              static_cast<std::size_t>(kBuffers - kKillAfter));
    for (int u = 1; u < kUows; ++u) {
      EXPECT_EQ(stamp_union(reps, u), all_stamps(kBuffers)) << "uow " << u;
    }
  }
}

// ---------------------------------------------------------------------------
// Kill BETWEEN DONE and the next UOW: the victim's DONE for UOW 0 was
// flushed before the kill (wait_flushed fence), so UOW 0 stays fully clean
// on every survivor — deterministically — and the death is charged to UOW 1.
// ---------------------------------------------------------------------------

TEST(NetFault, KillBetweenDoneAndNextUowKeepsPreviousUowClean) {
  constexpr int kRanks = 3, kUows = 3, kVictim = 1;
  TempDir dir;
  ChildParams pp;
  pp.policy = core::Policy::kDemandDriven;
  pp.uows = kUows;
  pp.dir = dir.path;
  net::FaultHarness h(net::LaunchOptions{/*timeout_s=*/90.0});
  h.kill_rank(kVictim, net::FaultTrigger::kUow, 1);
  const auto st = h.run(
      kRanks, [&pp](net::RankEnv& env) { return stamped_rank_main(env, pp); });

  EXPECT_EQ(st[kVictim].term_signal, SIGKILL);
  std::vector<RankReport> reps;
  for (int r = 0; r < kRanks; ++r) {
    if (r == kVictim) continue;
    ASSERT_TRUE(st[static_cast<std::size_t>(r)].ok())
        << "rank " << r
        << " stderr: " << st[static_cast<std::size_t>(r)].stderr_output;
    reps.push_back(read_report(dir.path, r));
    ASSERT_TRUE(reps.back().present) << "rank " << r;
  }
  const auto golden = sim_goldens(core::Policy::kDemandDriven, kRanks, kUows,
                                  kBuffers, {{1, kVictim}});
  for (const RankReport& rep : reps) {
    ASSERT_EQ(rep.uows.size(), static_cast<std::size_t>(kUows));
    // UOW 0 completed before the victim died: full-field clean.
    EXPECT_EQ(rep.uows[0].run_status, 0);
    expect_outcome_eq(rep.uows[0].outcome, golden[0], "uow 0");
    EXPECT_EQ(rep.uows[0].outcome.status, core::UowStatus::kComplete);
    // UOW 1 absorbs the death (at admission or mid-UOW depending on when
    // the close lands — both yield one failover and a degraded outcome).
    EXPECT_EQ(rep.uows[1].run_status, 0);
    EXPECT_EQ(rep.uows[1].outcome.status, core::UowStatus::kDegraded);
    EXPECT_EQ(rep.uows[1].outcome.failovers, 1u);
    // UOW 2 is admission-only: full-field golden parity.
    expect_outcome_eq(rep.uows[2].outcome, golden[2], "uow 2");
    EXPECT_EQ(rep.hosts_failed, 1u);
  }
  EXPECT_EQ(st[kVictim].faults_injected, 1);
  EXPECT_EQ(stamp_union(reps, 2), all_stamps(kBuffers));
}

// ---------------------------------------------------------------------------
// Double kill across consecutive UOWs: one rank dies mid-UOW 0, another at
// its UOW-1 entry. UOW 1 books both failovers; UOW 2 and 3 settle into the
// simulator's steady degraded state (and equal each other exactly).
// ---------------------------------------------------------------------------

TEST(NetFault, DoubleKillAcrossConsecutiveUows) {
  constexpr int kRanks = 4, kUows = 4;
  TempDir dir;
  ChildParams pp;
  pp.policy = core::Policy::kDemandDriven;
  pp.uows = kUows;
  pp.dir = dir.path;
  net::FaultHarness h(net::LaunchOptions{/*timeout_s=*/120.0});
  h.kill_rank(1, net::FaultTrigger::kBuffers, 5);
  h.kill_rank(2, net::FaultTrigger::kUow, 1);
  const auto st = h.run(
      kRanks, [&pp](net::RankEnv& env) { return stamped_rank_main(env, pp); });

  EXPECT_EQ(st[1].term_signal, SIGKILL);
  EXPECT_EQ(st[2].term_signal, SIGKILL);
  std::vector<RankReport> reps;
  for (int r : {0, 3}) {
    ASSERT_TRUE(st[static_cast<std::size_t>(r)].ok())
        << "rank " << r
        << " stderr: " << st[static_cast<std::size_t>(r)].stderr_output;
    reps.push_back(read_report(dir.path, r));
    ASSERT_TRUE(reps.back().present) << "rank " << r;
  }
  const auto golden = sim_goldens(core::Policy::kDemandDriven, kRanks, kUows,
                                  kBuffers, {{1, 1}, {2, 2}});
  for (const RankReport& rep : reps) {
    ASSERT_EQ(rep.uows.size(), static_cast<std::size_t>(kUows));
    EXPECT_EQ(rep.uows[0].outcome.status, core::UowStatus::kDegraded);
    EXPECT_EQ(rep.uows[0].outcome.failovers, 1u);
    // UOW 1: rank 1's admission re-count plus rank 2's fresh death.
    EXPECT_EQ(rep.uows[1].outcome.status, core::UowStatus::kDegraded);
    EXPECT_EQ(rep.uows[1].outcome.failovers, 2u);
    for (int u = 2; u < kUows; ++u) {
      EXPECT_EQ(rep.uows[static_cast<std::size_t>(u)].run_status, 0);
      expect_outcome_eq(rep.uows[static_cast<std::size_t>(u)].outcome,
                        golden[static_cast<std::size_t>(u)],
                        "uow " + std::to_string(u));
    }
    // Steady state: consecutive admission-only UOWs are identical.
    expect_outcome_eq(rep.uows[2].outcome, rep.uows[3].outcome, "uow2==uow3");
    EXPECT_EQ(rep.hosts_failed, 2u);
  }
  EXPECT_EQ(stamp_union(reps, 2), all_stamps(kBuffers));
  EXPECT_EQ(stamp_union(reps, 3), all_stamps(kBuffers));
}

// ---------------------------------------------------------------------------
// Losing EVERY copy of a filter is partial loss, not an abort: the run
// still completes with a structured kPartialLoss outcome naming the dead
// filter, exactly like the simulator's classification.
// ---------------------------------------------------------------------------

TEST(NetFault, KillingEveryWorkerYieldsPartialLoss) {
  constexpr int kRanks = 3;
  TempDir dir;
  ChildParams pp;
  pp.policy = core::Policy::kRoundRobin;
  pp.uows = 1;
  pp.dir = dir.path;
  net::FaultHarness h(net::LaunchOptions{/*timeout_s=*/90.0});
  h.kill_rank(1, net::FaultTrigger::kBuffers, 3);
  h.kill_rank(2, net::FaultTrigger::kBuffers, 6);
  const auto st = h.run(
      kRanks, [&pp](net::RankEnv& env) { return stamped_rank_main(env, pp); });

  EXPECT_EQ(st[1].term_signal, SIGKILL);
  EXPECT_EQ(st[2].term_signal, SIGKILL);
  ASSERT_TRUE(st[0].ok()) << "stderr: " << st[0].stderr_output;
  const RankReport rep = read_report(dir.path, 0);
  ASSERT_TRUE(rep.present);
  ASSERT_EQ(rep.uows.size(), 1u);
  EXPECT_EQ(rep.uows[0].run_status, 0);  // completes — degraded, not aborted
  EXPECT_EQ(rep.uows[0].outcome.status, core::UowStatus::kPartialLoss);
  EXPECT_EQ(rep.uows[0].outcome.failovers, 2u);
  EXPECT_GT(rep.uows[0].outcome.buffers_lost, 0u);
  ASSERT_EQ(rep.uows[0].outcome.dead_filters.size(), 1u);
  EXPECT_EQ(rep.hosts_failed, 2u);
}

// ---------------------------------------------------------------------------
// SIGSTOP: the victim's sockets stay open, so the ONLY death signal is
// heartbeat silence. The monitor must declare it dead within peer_timeout_s
// and the survivors fail over exactly as for a crash.
// ---------------------------------------------------------------------------

TEST(NetFault, FrozenRankIsDetectedByHeartbeatTimeout) {
  constexpr int kRanks = 3, kVictim = 1, kFreezeAfter = 3;
  TempDir dir;
  ChildParams pp;
  pp.policy = core::Policy::kDemandDriven;
  pp.uows = 1;
  pp.peer_timeout_s = 0.4;
  pp.dir = dir.path;
  net::FaultHarness h(net::LaunchOptions{/*timeout_s=*/90.0});
  // Stays frozen until the survivors finish (the harness then reaps it).
  h.stop_rank(kVictim, net::FaultTrigger::kBuffers, kFreezeAfter,
              /*resume_after_s=*/0.0);
  const auto st = h.run(
      kRanks, [&pp](net::RankEnv& env) { return stamped_rank_main(env, pp); });

  EXPECT_EQ(st[kVictim].faults_injected, 1);
  std::vector<RankReport> reps;
  for (int r = 0; r < kRanks; ++r) {
    if (r == kVictim) continue;
    ASSERT_TRUE(st[static_cast<std::size_t>(r)].ok())
        << "rank " << r
        << " stderr: " << st[static_cast<std::size_t>(r)].stderr_output;
    reps.push_back(read_report(dir.path, r));
    ASSERT_TRUE(reps.back().present) << "rank " << r;
  }
  for (const RankReport& rep : reps) {
    ASSERT_EQ(rep.uows.size(), 1u);
    EXPECT_EQ(rep.uows[0].run_status, 0);
    EXPECT_EQ(rep.uows[0].outcome.status, core::UowStatus::kDegraded);
    EXPECT_EQ(rep.uows[0].outcome.failovers, 1u);
    EXPECT_EQ(rep.hosts_failed, 1u);
  }
  // The frozen rank consumed at most kFreezeAfter stamps before stopping.
  EXPECT_GE(stamp_union(reps, 0).size(),
            static_cast<std::size_t>(kBuffers - kFreezeAfter));
}

// ---------------------------------------------------------------------------
// Kill during the mesh handshake: the survivor's accept deadline expires and
// the child dies with a structured "net:" error on its captured stderr —
// never a hang (and the harness's exit-111 uncaught-exception contract).
// ---------------------------------------------------------------------------

TEST(NetFault, KillDuringMeshHandshakeFailsStructured) {
  net::FaultHarness h(net::LaunchOptions{/*timeout_s=*/60.0});
  h.kill_rank(1, net::FaultTrigger::kBuffers, 1);
  const auto st = h.run(2, [](net::RankEnv& env) {
    if (env.rank == 1 && env.fault != nullptr) {
      // Die BEFORE connecting: rank 0 waits on an accept that never comes.
      env.fault->advance(net::FaultTrigger::kBuffers, 1);
    }
    std::vector<net::Socket> peers = net::connect_mesh(env, 3.0);
    return 0;
  });
  ASSERT_EQ(st.size(), 2u);
  EXPECT_EQ(st[1].term_signal, SIGKILL);
  EXPECT_EQ(st[1].faults_injected, 1);
  EXPECT_FALSE(st[0].timed_out);
  EXPECT_EQ(st[0].exit_code, 111);  // uncaught std::runtime_error
  EXPECT_NE(st[0].stderr_output.find("net:"), std::string::npos)
      << st[0].stderr_output;
}

// ---------------------------------------------------------------------------
// replace_dead: instead of running degraded forever, the next UOW boundary
// re-places the dead rank's copies onto survivors (core::replace_dead_hosts)
// — one failover for the move, then fully kComplete UOWs with full payload.
// ---------------------------------------------------------------------------

TEST(NetFault, ReplaceDeadRehostsCopiesAtNextUow) {
  constexpr int kRanks = 4, kUows = 3, kVictim = 2;
  TempDir dir;
  ChildParams pp;
  pp.policy = core::Policy::kDemandDriven;
  pp.uows = kUows;
  pp.replace_dead = true;
  pp.dir = dir.path;
  net::FaultHarness h(net::LaunchOptions{/*timeout_s=*/90.0});
  h.kill_rank(kVictim, net::FaultTrigger::kBuffers, 5);
  const auto st = h.run(
      kRanks, [&pp](net::RankEnv& env) { return stamped_rank_main(env, pp); });

  EXPECT_EQ(st[kVictim].term_signal, SIGKILL);
  std::vector<RankReport> reps;
  for (int r = 0; r < kRanks; ++r) {
    if (r == kVictim) continue;
    ASSERT_TRUE(st[static_cast<std::size_t>(r)].ok())
        << "rank " << r
        << " stderr: " << st[static_cast<std::size_t>(r)].stderr_output;
    reps.push_back(read_report(dir.path, r));
    ASSERT_TRUE(reps.back().present) << "rank " << r;
  }
  for (const RankReport& rep : reps) {
    ASSERT_EQ(rep.uows.size(), static_cast<std::size_t>(kUows));
    EXPECT_EQ(rep.uows[0].outcome.status, core::UowStatus::kDegraded);
    // UOW 1: the replacement move books one failover, then runs clean.
    EXPECT_EQ(rep.uows[1].outcome.status, core::UowStatus::kDegraded);
    EXPECT_EQ(rep.uows[1].outcome.failovers, 1u);
    EXPECT_EQ(rep.uows[1].outcome.retransmits, 0u);
    EXPECT_EQ(rep.uows[1].outcome.buffers_lost, 0u);
    EXPECT_TRUE(rep.uows[1].outcome.dead_filters.empty());
    // UOW 2: the re-placed layout is the new normal — fully complete.
    EXPECT_EQ(rep.uows[2].outcome.status, core::UowStatus::kComplete);
    EXPECT_EQ(rep.uows[2].outcome.failovers, 0u);
    EXPECT_EQ(rep.uows[2].outcome.retransmits, 0u);
    EXPECT_EQ(rep.uows[2].outcome.buffers_lost, 0u);
  }
  // Full payload from UOW 1 on: the moved copy carries the dead rank's
  // share (it lands on rank 0, the only survivor without a worker copy).
  EXPECT_EQ(stamp_union(reps, 1), all_stamps(kBuffers));
  EXPECT_EQ(stamp_union(reps, 2), all_stamps(kBuffers));
}

}  // namespace
}  // namespace dc
