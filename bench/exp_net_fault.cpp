// Fault-injection degradation sweep for the DISTRIBUTED runtime: four real
// OS processes run the stamped source -> replicated worker pipeline over the
// dc::net TCP transport, and the FaultHarness SIGKILLs one of the four ranks
// mid-UOW (at a deterministic processed-buffer trigger, child-reported over
// the control pipe — no wall-clock flakiness). This is the process-level
// counterpart of exp_fault_degradation's virtual-host crashes.
//
// Per policy (RR / WRR / DD) the table reports the clean-run baseline, the
// kill run's structured outcome on the survivors (failovers, retransmits,
// losses, UowStatus), the payload coverage of the degraded UOW (fraction of
// stamps that still reached a live worker — at-least-once delivery across
// the failover), and whether the UOWs after the death settle into the
// steady degraded state with full delivery.
//
//   build/bench/exp_net_fault [--quick]
//
// NOTE: the sweep forks rank process groups, so the parent stays
// single-threaded; the rank children never write to stdout (the last line
// stays JSON) and report through per-rank temp files instead.

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
#include "exp_common.hpp"
#include "net/process.hpp"
#include "net/transport.hpp"

using namespace dc;

namespace {

constexpr int kRanks = 4;
constexpr int kVictim = 2;

class StampedSource : public core::SourceFilter {
 public:
  explicit StampedSource(int count) : count_(count) {}
  bool step(core::FilterContext& ctx) override {
    if (i_ >= count_) return false;
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

class RecordingWorker : public core::Filter {
 public:
  RecordingWorker(std::shared_ptr<std::map<int, std::set<std::uint32_t>>> st,
                  std::shared_ptr<std::mutex> mu, std::shared_ptr<int> cur,
                  net::FaultCell* cell)
      : stamps_(std::move(st)),
        mu_(std::move(mu)),
        cur_(std::move(cur)),
        cell_(cell) {}
  void process_buffer(core::FilterContext&, int,
                      const core::Buffer& buf) override {
    {
      std::lock_guard<std::mutex> lk(*mu_);
      (*stamps_)[*cur_].insert(buf.records<std::uint32_t>()[0]);
    }
    if (cell_ != nullptr) cell_->advance(net::FaultTrigger::kBuffers, 1);
  }

 private:
  std::shared_ptr<std::map<int, std::set<std::uint32_t>>> stamps_;
  std::shared_ptr<std::mutex> mu_;
  std::shared_ptr<int> cur_;
  net::FaultCell* cell_;
};

int rank_main(net::RankEnv& env, core::Policy pol, int uows, int buffers,
              const std::string& dir) {
  std::vector<net::Socket> peers = net::connect_mesh(env, 30.0);
  env.listener.close();

  auto cur = std::make_shared<int>(0);
  auto stamps = std::make_shared<std::map<int, std::set<std::uint32_t>>>();
  auto mu = std::make_shared<std::mutex>();
  net::FaultCell* cell = env.fault;

  core::Graph g;
  const int src = g.add_source(
      "src", [buffers] { return std::make_unique<StampedSource>(buffers); });
  const int wrk = g.add_filter("work", [=] {
    return std::make_unique<RecordingWorker>(stamps, mu, cur, cell);
  });
  g.connect(src, 0, wrk, 0);
  core::Placement p;
  p.place(src, 0, 1);
  for (int h = 1; h < env.num_ranks; ++h) p.place(wrk, h, 1);

  core::RuntimeConfig cfg;
  cfg.policy = pol;
  cfg.detection = core::FailureDetection::kMembership;
  exec::DistributedOptions dopts;
  dopts.barrier_timeout_s = 30.0;
  dopts.heartbeat_interval_s = 0.02;
  exec::Engine eng(g, p, cfg, env.rank, env.num_ranks, std::move(peers), dopts);
  if (cell != nullptr) eng.set_fault_cell(cell);

  std::vector<exec::UowResult> results;
  for (int u = 0; u < uows; ++u) {
    *cur = u;
    results.push_back(eng.run_uow_outcome());
    if (results.back().status == exec::RunStatus::kTransportError) break;
  }
  eng.shutdown();

  std::ofstream out(dir + "/rank" + std::to_string(env.rank) + ".txt");
  for (const exec::UowResult& r : results) {
    out << "uow " << static_cast<int>(r.status) << ' '
        << static_cast<int>(r.outcome.status) << ' ' << r.makespan << ' '
        << r.outcome.failovers << ' ' << r.outcome.retransmits << ' '
        << r.outcome.buffers_lost << ' ' << r.outcome.buffers_duplicated
        << '\n';
  }
  for (const auto& [u, set] : *stamps) {
    out << "stamps " << u << ' ' << set.size();
    for (std::uint32_t v : set) out << ' ' << v;
    out << '\n';
  }
  out.flush();
  return out.good() ? 0 : 10;
}

struct UowAgg {
  int status = 0;           ///< worst exec::RunStatus across ranks
  int outcome_status = 0;   ///< worst core::UowStatus across ranks
  double wall_s = 0.0;      ///< max rank makespan
  std::uint64_t failovers = 0;    ///< max (each rank books every copy set)
  std::uint64_t retransmits = 0;  ///< sum (per-rank partial counts)
  std::uint64_t lost = 0;
  std::uint64_t dup = 0;
};

struct SweepResult {
  bool ok = false;
  std::vector<UowAgg> uows;
  std::vector<std::set<std::uint32_t>> delivered;  ///< stamp union per UOW
};

/// Runs the 4-rank group, optionally killing kVictim after `kill_after`
/// worker buffers, and aggregates the survivors' reports.
SweepResult run_group(core::Policy pol, int uows, int buffers, int kill_after) {
  char tmpl[] = "/tmp/dc_exp_net_fault_XXXXXX";
  const char* dirp = ::mkdtemp(tmpl);
  if (dirp == nullptr) return {};
  const std::string dir = dirp;

  net::FaultHarness h(net::LaunchOptions{/*timeout_s=*/180.0});
  if (kill_after > 0) {
    h.kill_rank(kVictim, net::FaultTrigger::kBuffers,
                static_cast<std::uint64_t>(kill_after));
  }
  const auto st = h.run(kRanks, [&](net::RankEnv& env) {
    return rank_main(env, pol, uows, buffers, dir);
  });

  SweepResult res;
  res.ok = true;
  res.uows.assign(static_cast<std::size_t>(uows), UowAgg{});
  res.delivered.assign(static_cast<std::size_t>(uows), {});
  for (int r = 0; r < kRanks; ++r) {
    const auto& s = st[static_cast<std::size_t>(r)];
    if (kill_after > 0 && r == kVictim) continue;  // died by design
    if (!s.ok()) {
      std::fprintf(stderr, "rank %d failed (exit %d sig %d):\n%s\n", r,
                   s.exit_code, s.term_signal, s.stderr_output.c_str());
      res.ok = false;
      continue;
    }
    std::ifstream in(dir + "/rank" + std::to_string(r) + ".txt");
    std::string line;
    std::size_t u = 0;
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      std::string tag;
      ls >> tag;
      if (tag == "uow" && u < res.uows.size()) {
        UowAgg& a = res.uows[u];
        int status = 0, ostatus = 0;
        double wall = 0.0;
        std::uint64_t fo = 0, rt = 0, lost = 0, dup = 0;
        ls >> status >> ostatus >> wall >> fo >> rt >> lost >> dup;
        a.status = std::max(a.status, status);
        a.outcome_status = std::max(a.outcome_status, ostatus);
        a.wall_s = std::max(a.wall_s, wall);
        a.failovers = std::max(a.failovers, fo);
        a.retransmits += rt;
        a.lost += lost;
        a.dup += dup;
        ++u;
      } else if (tag == "stamps") {
        int su = 0;
        std::size_t n = 0;
        ls >> su >> n;
        for (std::size_t i = 0; i < n; ++i) {
          std::uint32_t v = 0;
          ls >> v;
          if (su >= 0 && su < uows) {
            res.delivered[static_cast<std::size_t>(su)].insert(v);
          }
        }
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return res;
}

const char* uow_status_name(int s) {
  switch (s) {
    case 0: return "complete";
    case 1: return "degraded";
    case 2: return "partial-loss";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const exp::Args args = exp::Args::parse(argc, argv);
  const int uows = args.quick ? 2 : 3;
  const int buffers = args.quick ? 96 : 384;
  const int kill_after = buffers / 8;

  exp::print_title(
      "Degradation under process death (exec::Engine ranks + FaultHarness)",
      "4 ranks, SIGKILL rank " + std::to_string(kVictim) + " after " +
          std::to_string(kill_after) + " worker buffers, " +
          std::to_string(buffers) + " buffers/UOW, " + std::to_string(uows) +
          " UOWs");

  const struct {
    core::Policy policy;
    const char* name;
  } kPolicies[] = {{core::Policy::kRoundRobin, "rr"},
                   {core::Policy::kWeightedRoundRobin, "wrr"},
                   {core::Policy::kDemandDriven, "dd"}};

  struct Row {
    std::string policy;
    double clean_wall = 0.0, kill_wall = 0.0;
    std::uint64_t failovers = 0, retransmits = 0, lost = 0;
    double coverage = 0.0;  ///< stamp fraction delivered in the kill UOW
    bool later_complete = false;
    int kill_status = 0;
  };
  std::vector<Row> rows;

  exp::Table table({"policy", "clean s/uow", "kill s/uow", "failovers",
                    "retransmits", "lost", "coverage", "outcome"});
  bool all_ok = true;
  for (const auto& pol : kPolicies) {
    const SweepResult clean = run_group(pol.policy, uows, buffers, 0);
    const SweepResult kill = run_group(pol.policy, uows, buffers, kill_after);
    if (!clean.ok || !kill.ok) {
      all_ok = false;
      continue;
    }

    Row row;
    row.policy = pol.name;
    for (const UowAgg& a : clean.uows) row.clean_wall += a.wall_s;
    row.clean_wall /= static_cast<double>(uows);
    row.kill_wall = kill.uows[0].wall_s;  // the UOW the death lands in
    row.failovers = kill.uows[0].failovers;
    row.retransmits = kill.uows[0].retransmits;
    row.lost = kill.uows[0].lost;
    row.kill_status = kill.uows[0].outcome_status;
    row.coverage = static_cast<double>(kill.delivered[0].size()) /
                   static_cast<double>(buffers);
    // Every UOW after the death must deliver the full payload on the
    // survivors (steady degraded state).
    row.later_complete = true;
    for (int u = 1; u < uows; ++u) {
      if (kill.delivered[static_cast<std::size_t>(u)].size() !=
          static_cast<std::size_t>(buffers)) {
        row.later_complete = false;
      }
    }
    rows.push_back(row);

    table.row({row.policy, exp::Table::num(row.clean_wall, 4),
               exp::Table::num(row.kill_wall, 4),
               std::to_string(row.failovers), std::to_string(row.retransmits),
               std::to_string(row.lost), exp::Table::num(row.coverage, 3),
               uow_status_name(row.kill_status)});
  }
  exp::print_rule();
  std::printf(
      "coverage = fraction of the kill UOW's stamps that still reached a\n"
      "live worker (at-least-once across the failover); the victim takes at\n"
      "most %d stamps with it. Later UOWs must deliver 100%%.\n",
      kill_after);

  obs::MetricsRegistry reg;
  for (const Row& row : rows) {
    const std::string k = "fault." + row.policy;
    reg.set(k + ".clean_wall_s", row.clean_wall);
    reg.set(k + ".kill_wall_s", row.kill_wall);
    reg.set(k + ".failovers", static_cast<std::int64_t>(row.failovers));
    reg.set(k + ".retransmits", static_cast<std::int64_t>(row.retransmits));
    reg.set(k + ".lost", static_cast<std::int64_t>(row.lost));
    reg.set(k + ".coverage", row.coverage);
    reg.set(k + ".later_complete",
            static_cast<std::int64_t>(row.later_complete ? 1 : 0));
    reg.set(k + ".kill_status", static_cast<std::int64_t>(row.kill_status));
  }

  std::string extra = "\"sweep\":[";
  char buf[240];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"policy\":\"%s\",\"clean_wall_s\":%.6f,\"kill_wall_s\":%.6f,"
        "\"failovers\":%llu,\"retransmits\":%llu,\"lost\":%llu,"
        "\"coverage\":%.4f,\"later_complete\":%s,\"status\":\"%s\"}",
        i ? "," : "", r.policy.c_str(), r.clean_wall, r.kill_wall,
        static_cast<unsigned long long>(r.failovers),
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.lost), r.coverage,
        r.later_complete ? "true" : "false", uow_status_name(r.kill_status));
    extra += buf;
  }
  extra += "]";
  exp::print_json("net_fault", reg, extra);
  return all_ok && rows.size() == 3 ? 0 : 1;
}
