#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/arena.hpp"
#include "core/filter.hpp"
#include "core/graph.hpp"
#include "core/placement.hpp"
#include "core/runtime.hpp"
#include "exec/engine.hpp"
#include "net/process.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "test_util.hpp"
#include "viz/app.hpp"
#include "viz/distributed.hpp"

// Distributed differential harness: 2-4 real OS processes connected by the
// dc::net TCP transport render the same workload as a single-process
// exec::Engine with the same graph, placement, and seed — the
// merged images must be BIT-IDENTICAL, and on single-copy chains the full
// stream/ack ledgers must match entry for entry.
//
// Failure injection rides the same harness: a throwing filter on one rank
// and corrupt bytes on the wire must terminate EVERY process with a
// structured outcome — never a hang (the process-group launcher enforces a
// hard deadline and reports SIGKILLed stragglers as timed out, so a wedged
// run fails loudly).
//
// NOTE on threading: the parent process must be single-threaded whenever it
// forks rank processes (and the TSan job runs this binary), so these tests
// deliberately use no exec::Watchdog in the parent — the launcher deadline
// IS the watchdog.

namespace dc {
namespace {

constexpr double kGroupTimeout = 180.0;

struct NetDifferential : ::testing::Test {
  test::TestDataset ds = test::make_dataset(24, 3, 16);

  viz::IsoAppSpec spec(viz::PipelineConfig config, viz::HsrAlgorithm hsr,
                       std::vector<viz::HostCopies> data,
                       std::vector<viz::HostCopies> raster, int merge) {
    // The chunks must live on the read-side hosts, or those filters see an
    // empty dataset (reads are data-local).
    std::vector<data::FileLocation> locs;
    for (const auto& hc : data) locs.push_back(data::FileLocation{hc.host, 0});
    ds.store->place_uniform(locs);

    viz::IsoAppSpec s;
    s.workload = test::make_workload(ds, 48, 48);
    s.config = config;
    s.hsr = hsr;
    s.data_hosts = std::move(data);
    s.raster_hosts = std::move(raster);
    s.merge_host = merge;
    return s;
  }

  /// Runs the spec on the native engine and on `num_ranks` processes and
  /// asserts bit-identical merged output.
  void expect_identical(const viz::IsoAppSpec& s,
                        const core::RuntimeConfig& cfg, int num_ranks,
                        int uows = 1) {
    const viz::NativeRenderRun nat = viz::run_iso_app_native(s, cfg, uows);
    viz::DistributedRunOptions opts;
    opts.timeout_s = kGroupTimeout;
    const viz::DistributedRenderRun dist =
        viz::run_iso_app_distributed(s, cfg, uows, num_ranks, opts);
    ASSERT_TRUE(dist.ok) << dist.error;
    ASSERT_EQ(dist.digests.size(), static_cast<std::size_t>(uows));
    EXPECT_EQ(dist.digests, nat.sink->digests);
    ASSERT_EQ(dist.images.size(), nat.sink->images.size());
    for (std::size_t u = 0; u < dist.images.size(); ++u) {
      EXPECT_EQ(dist.images[u], nat.sink->images[u]) << "uow " << u;
    }
  }
};

// ---------------------------------------------------------------------------
// Headline bar: >= 10 seeds x {RR, WRR, DD}, 3-process runs, bit-identical
// merged images against the in-process native engine.
// ---------------------------------------------------------------------------

class SeededPolicy
    : public NetDifferential,
      public ::testing::WithParamInterface<core::Policy> {};

TEST_P(SeededPolicy, TenSeedsBitIdenticalAcrossThreeProcesses) {
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, viz::HsrAlgorithm::kActivePixel,
                viz::one_each({0, 1}), {{1, 2}, {2, 1}}, 2);
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 97ULL, 1234ULL, 5150ULL,
                             90125ULL, 424242ULL, 7777777ULL, 987654321ULL}) {
    core::RuntimeConfig cfg;
    cfg.policy = GetParam();
    cfg.rng_seed = seed;
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_identical(s, cfg, /*num_ranks=*/3);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, SeededPolicy,
                         ::testing::Values(core::Policy::kRoundRobin,
                                           core::Policy::kWeightedRoundRobin,
                                           core::Policy::kDemandDriven),
                         [](const auto& info) {
                           switch (info.param) {
                             case core::Policy::kRoundRobin: return "RR";
                             case core::Policy::kWeightedRoundRobin: return "WRR";
                             case core::Policy::kDemandDriven: return "DD";
                             case core::Policy::kTileOwner: return "TILE";
                           }
                           return "unknown";
                         });

// Four processes, fused pipeline, and the reference renderer as the anchor.
TEST_F(NetDifferential, FourProcessFusedPipelineMatchesReference) {
  auto s = spec(viz::PipelineConfig::kRERa_M, viz::HsrAlgorithm::kZBuffer,
                viz::one_each({0, 1, 2}), {}, 3);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  viz::DistributedRunOptions opts;
  opts.timeout_s = kGroupTimeout;
  const viz::DistributedRenderRun dist =
      viz::run_iso_app_distributed(s, cfg, 1, /*num_ranks=*/4, opts);
  ASSERT_TRUE(dist.ok) << dist.error;
  ASSERT_EQ(dist.digests.size(), 1u);
  EXPECT_EQ(dist.digests[0], test::direct_render(s.workload, 0).digest());
}

// Multi-UOW lockstep: the DONE barrier separates units, early frames for the
// next UOW are stashed and replayed, and the RNG advances identically.
TEST_F(NetDifferential, MultiUowLockstepMatchesNative) {
  auto s = spec(viz::PipelineConfig::kR_ERa_M, viz::HsrAlgorithm::kActivePixel,
                viz::one_each({0}), viz::one_each({1}), 1);
  s.workload.vary_view_per_uow = true;
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  expect_identical(s, cfg, /*num_ranks=*/2, /*uows=*/3);
}

// ---------------------------------------------------------------------------
// Ledger parity: on single-copy chains the per-stream ledger and every
// instance's counters are deterministic; the distributed ledger (summed
// across ranks) and the per-instance counters must match the native
// engine's exactly, including DD ack accounting.
// ---------------------------------------------------------------------------

TEST_F(NetDifferential, SingleCopyChainLedgerAndAcksMatchNative) {
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, viz::HsrAlgorithm::kZBuffer,
                viz::one_each({0}), viz::one_each({1}), 1);
  for (core::Policy pol : {core::Policy::kRoundRobin,
                           core::Policy::kWeightedRoundRobin,
                           core::Policy::kDemandDriven}) {
    core::RuntimeConfig cfg;
    cfg.policy = pol;
    cfg.rng_seed = 99;
    SCOPED_TRACE("policy " + std::to_string(static_cast<int>(pol)));

    const viz::NativeRenderRun nat = viz::run_iso_app_native(s, cfg, 1);
    viz::DistributedRunOptions opts;
    opts.timeout_s = kGroupTimeout;
    const viz::DistributedRenderRun dist =
        viz::run_iso_app_distributed(s, cfg, 1, /*num_ranks=*/2, opts);
    ASSERT_TRUE(dist.ok) << dist.error;
    EXPECT_EQ(dist.digests, nat.sink->digests);

    ASSERT_EQ(dist.metrics.streams.size(), nat.metrics.streams.size());
    for (std::size_t i = 0; i < nat.metrics.streams.size(); ++i) {
      EXPECT_EQ(dist.metrics.streams[i].name, nat.metrics.streams[i].name);
      EXPECT_EQ(dist.metrics.streams[i].buffers,
                nat.metrics.streams[i].buffers)
          << nat.metrics.streams[i].name;
      EXPECT_EQ(dist.metrics.streams[i].payload_bytes,
                nat.metrics.streams[i].payload_bytes)
          << nat.metrics.streams[i].name;
      EXPECT_EQ(dist.metrics.streams[i].message_bytes,
                nat.metrics.streams[i].message_bytes)
          << nat.metrics.streams[i].name;
    }
    EXPECT_EQ(dist.metrics.acks_total, nat.metrics.acks_total);
    EXPECT_EQ(dist.metrics.ack_bytes_total, nat.metrics.ack_bytes_total);

    // Per-instance counters survive the trip back from the ranks: every
    // (filter, instance) of the native run appears once in the distributed
    // metrics with the same deterministic counters.
    using Key = std::pair<int, int>;
    std::map<Key, core::InstanceMetrics> native_by_copy;
    for (const auto& m : nat.metrics.instances) {
      native_by_copy[{m.filter, m.instance}] = m;
    }
    std::map<Key, core::InstanceMetrics> dist_by_copy;
    for (const auto& m : dist.metrics.instances) {
      EXPECT_TRUE(dist_by_copy.emplace(Key{m.filter, m.instance}, m).second)
          << "filter " << m.filter << " instance " << m.instance
          << " reported twice";
    }
    ASSERT_EQ(dist_by_copy.size(), native_by_copy.size());
    for (const auto& [key, n] : native_by_copy) {
      SCOPED_TRACE("filter " + std::to_string(key.first) + " instance " +
                   std::to_string(key.second));
      const auto it = dist_by_copy.find(key);
      ASSERT_NE(it, dist_by_copy.end());
      const core::InstanceMetrics& d = it->second;
      EXPECT_EQ(d.host, n.host);
      EXPECT_EQ(d.host_class, n.host_class);
      EXPECT_EQ(d.buffers_in, n.buffers_in);
      EXPECT_EQ(d.buffers_out, n.buffers_out);
      EXPECT_EQ(d.bytes_in, n.bytes_in);
      EXPECT_EQ(d.bytes_out, n.bytes_out);
      EXPECT_EQ(d.work_ops, n.work_ops);
      EXPECT_EQ(d.disk_bytes, n.disk_bytes);
      EXPECT_EQ(d.acks_sent, n.acks_sent);
    }
    if (pol == core::Policy::kDemandDriven) {
      // Cross-process demand: the DD acks for remote producers really
      // travelled as ACK frames.
      EXPECT_GT(dist.net.acks_sent, 0u);
    }
    // DATA and EOW frames are ordered by the completion barrier (all were
    // received before the consumer's DONE), so sent == received exactly.
    // CREDIT/ACK frames flow the other way and are NOT barrier-ordered: a
    // rank can snapshot before a peer's trailing credits arrive. Sent-side
    // counts are final (snapshots happen after link flush), so received
    // can only trail sent, never exceed it.
    EXPECT_EQ(dist.net.data_sent, dist.net.data_recv);
    EXPECT_LE(dist.net.credits_recv, dist.net.credits_sent);
    EXPECT_LE(dist.net.acks_recv, dist.net.acks_sent);
    EXPECT_GT(dist.net.credits_sent, 0u);
    EXPECT_EQ(dist.net.protocol_errors, 0u);
  }
}

// ---------------------------------------------------------------------------
// Failure injection. Children report through exit codes: 0 complete,
// 2 aborted, 3 transport error (matching viz's rank_main convention).
// ---------------------------------------------------------------------------

/// Consumes a few buffers, then throws — but only on the designated host.
class ThrowOnHost : public core::Filter {
 public:
  explicit ThrowOnHost(int host) : host_(host) {}
  void process_buffer(core::FilterContext& ctx, int,
                      const core::Buffer&) override {
    if (ctx.host() == host_ && ++seen_ >= 3) {
      throw std::runtime_error("injected failure");
    }
  }

 private:
  int host_;
  int seen_ = 0;
};

class CountSource : public core::SourceFilter {
 public:
  explicit CountSource(int steps) : steps_(steps) {}
  bool step(core::FilterContext& ctx) override {
    core::Buffer b = ctx.make_buffer(0);
    b.push(std::uint64_t{42});
    ctx.write(0, b);
    return ++i_ < steps_;
  }

 private:
  int steps_;
  int i_ = 0;
};

int run_status_to_exit(exec::RunStatus st) {
  switch (st) {
    case exec::RunStatus::kComplete: return 0;
    case exec::RunStatus::kAborted: return 2;
    case exec::RunStatus::kTransportError: return 3;
  }
  return 9;
}

TEST(NetDifferentialAbort, ThrowingFilterTerminatesEveryProcessStructured) {
  const auto statuses = net::run_local_ranks(
      3,
      [](net::RankEnv& env) {
        std::vector<net::Socket> peers = net::connect_mesh(env, 30.0);
        env.listener.close();

        core::Graph g;
        const int src = g.add_source(
            "src", [] { return std::make_unique<CountSource>(500); });
        const int sink = g.add_filter(
            "sink", [] { return std::make_unique<ThrowOnHost>(1); });
        g.connect(src, 0, sink, 0);
        core::Placement p;
        p.place(src, 0, 1).place(sink, 1, 1).place(sink, 2, 1);

        core::RuntimeConfig cfg;
        cfg.policy = core::Policy::kRoundRobin;
        exec::DistributedOptions dopts;
        dopts.barrier_timeout_s = 30.0;
        exec::Engine eng(g, p, cfg, env.rank, env.num_ranks,
                         std::move(peers), dopts);
        const exec::UowResult r = eng.run_uow_outcome();
        // No rank may report success: rank 1's filter threw, so rank 1 is
        // kAborted locally and the others observe the ABORT broadcast (or,
        // in teardown races, a transport close) before completing.
        return run_status_to_exit(r.status);
      },
      net::LaunchOptions{/*timeout_s=*/60.0});

  ASSERT_EQ(statuses.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    const auto& st = statuses[static_cast<std::size_t>(r)];
    EXPECT_FALSE(st.timed_out) << "rank " << r << " hung";
    EXPECT_EQ(st.term_signal, 0) << "rank " << r << " crashed";
    EXPECT_TRUE(st.exit_code == 2 || st.exit_code == 3)
        << "rank " << r << " exit " << st.exit_code;
  }
  // The rank that threw reports the abort specifically.
  EXPECT_EQ(statuses[1].exit_code, 2);
}

// Regression: an app-level abort (a filter throwing) must NOT poison the
// engine — the links stay healthy and the NEXT UOW completes cleanly on
// every rank. Only transport errors latch the engine unusable.
TEST(NetDifferentialAbort, AbortedUowDoesNotPoisonNextUow) {
  const auto statuses = net::run_local_ranks(
      3,
      [](net::RankEnv& env) {
        std::vector<net::Socket> peers = net::connect_mesh(env, 30.0);
        env.listener.close();

        // First instantiation (UOW 0) throws on host 1; the UOW-1 instance
        // is benign. Ranks without a sink copy never call the factory.
        auto ctor_count = std::make_shared<int>(0);
        core::Graph g;
        const int src = g.add_source(
            "src", [] { return std::make_unique<CountSource>(200); });
        const int sink = g.add_filter("sink", [ctor_count] {
          const bool faulty = (*ctor_count)++ == 0;
          return std::make_unique<ThrowOnHost>(faulty ? 1 : -1);
        });
        g.connect(src, 0, sink, 0);
        core::Placement p;
        p.place(src, 0, 1).place(sink, 1, 1).place(sink, 2, 1);

        core::RuntimeConfig cfg;
        cfg.policy = core::Policy::kRoundRobin;
        exec::DistributedOptions dopts;
        dopts.barrier_timeout_s = 30.0;
        exec::Engine eng(g, p, cfg, env.rank, env.num_ranks,
                         std::move(peers), dopts);
        const exec::UowResult first = eng.run_uow_outcome();
        const exec::UowResult second = eng.run_uow_outcome();
        if (first.status != exec::RunStatus::kAborted) return 4;
        if (second.status != exec::RunStatus::kComplete) return 5;
        return 0;
      },
      net::LaunchOptions{/*timeout_s=*/60.0});

  ASSERT_EQ(statuses.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    const auto& st = statuses[static_cast<std::size_t>(r)];
    EXPECT_FALSE(st.timed_out) << "rank " << r << " hung";
    EXPECT_EQ(st.exit_code, 0)
        << "rank " << r << " (4 = UOW 0 not aborted, 5 = UOW 1 not complete)"
        << " stderr: " << st.stderr_output;
  }
}

TEST(NetDifferentialCorrupt, GarbageOnTheWireTerminatesStructured) {
  const auto statuses = net::run_local_ranks(
      2,
      [](net::RankEnv& env) {
        std::vector<net::Socket> peers = net::connect_mesh(env, 30.0);
        env.listener.close();

        if (env.rank == 1) {
          // Saboteur: a valid HELLO went out during the mesh handshake; now
          // spray garbage instead of frames and leave.
          std::vector<std::byte> junk(512);
          for (std::size_t i = 0; i < junk.size(); ++i) {
            junk[i] = static_cast<std::byte>((i * 37 + 11) & 0xff);
          }
          (void)peers[0].send_all(junk);
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          return 0;
        }

        // Victim: expects stream data from rank 1, receives garbage; must
        // come back with a structured transport error, not a crash or hang.
        core::Graph g;
        const int src = g.add_source(
            "src", [] { return std::make_unique<CountSource>(50); });
        const int sink = g.add_filter(
            "sink", [] { return std::make_unique<ThrowOnHost>(-1); });
        g.connect(src, 0, sink, 0);
        core::Placement p;
        p.place(src, 1, 1).place(sink, 0, 1);

        core::RuntimeConfig cfg;
        exec::DistributedOptions dopts;
        dopts.barrier_timeout_s = 30.0;
        exec::Engine eng(g, p, cfg, env.rank, env.num_ranks,
                         std::move(peers), dopts);
        const exec::UowResult r = eng.run_uow_outcome();
        return run_status_to_exit(r.status);
      },
      net::LaunchOptions{/*timeout_s=*/60.0});

  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].ok() || statuses[0].exit_code == 3)
      << "victim exit " << statuses[0].exit_code;
  EXPECT_EQ(statuses[0].exit_code, 3);  // transport error, specifically
  EXPECT_FALSE(statuses[0].timed_out);
  EXPECT_EQ(statuses[1].exit_code, 0);
}

TEST(NetDifferentialCorrupt, FarFutureUowFrameTerminatesStructured) {
  const auto statuses = net::run_local_ranks(
      2,
      [](net::RankEnv& env) {
        std::vector<net::Socket> peers = net::connect_mesh(env, 30.0);
        env.listener.close();

        if (env.rank == 1) {
          // Saboteur: a perfectly well-formed CREDIT frame claiming a UOW
          // far in the future. The protocol allows peers at most one UOW
          // ahead — the victim must flag the violation, not buffer the
          // frame forever in its early-frame stash.
          core::BufferRoute r;
          r.stream = 0;
          r.producer = 0;
          r.target = 0;
          r.uow = 1000;
          net::Frame f = net::make_frame(net::FrameType::kCredit, r);
          (void)net::write_frame(peers[0], f, /*seq=*/1);
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          return 0;
        }

        core::Graph g;
        const int src = g.add_source(
            "src", [] { return std::make_unique<CountSource>(50); });
        const int sink = g.add_filter(
            "sink", [] { return std::make_unique<ThrowOnHost>(-1); });
        g.connect(src, 0, sink, 0);
        core::Placement p;
        p.place(src, 1, 1).place(sink, 0, 1);

        core::RuntimeConfig cfg;
        exec::DistributedOptions dopts;
        dopts.barrier_timeout_s = 30.0;
        exec::Engine eng(g, p, cfg, env.rank, env.num_ranks,
                         std::move(peers), dopts);
        const exec::UowResult r = eng.run_uow_outcome();
        return run_status_to_exit(r.status);
      },
      net::LaunchOptions{/*timeout_s=*/60.0});

  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].exit_code, 3);  // transport error, specifically
  EXPECT_FALSE(statuses[0].timed_out);
  EXPECT_EQ(statuses[1].exit_code, 0);
}

TEST(NetDifferentialCorrupt, PeerDeathMidRunTerminatesStructured) {
  const auto statuses = net::run_local_ranks(
      2,
      [](net::RankEnv& env) {
        std::vector<net::Socket> peers = net::connect_mesh(env, 30.0);
        env.listener.close();

        if (env.rank == 1) {
          // Hold the connection open briefly, send nothing, then vanish —
          // the victim's consumer is blocked waiting for this rank's data.
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
          return 0;
        }

        core::Graph g;
        const int src = g.add_source(
            "src", [] { return std::make_unique<CountSource>(50); });
        const int sink = g.add_filter(
            "sink", [] { return std::make_unique<ThrowOnHost>(-1); });
        g.connect(src, 0, sink, 0);
        core::Placement p;
        p.place(src, 1, 1).place(sink, 0, 1);

        core::RuntimeConfig cfg;
        exec::DistributedOptions dopts;
        dopts.barrier_timeout_s = 30.0;
        exec::Engine eng(g, p, cfg, env.rank, env.num_ranks,
                         std::move(peers), dopts);
        const exec::UowResult r = eng.run_uow_outcome();
        return run_status_to_exit(r.status);
      },
      net::LaunchOptions{/*timeout_s=*/60.0});

  EXPECT_EQ(statuses[0].exit_code, 3);
  EXPECT_FALSE(statuses[0].timed_out);
  EXPECT_EQ(statuses[1].exit_code, 0);
}

// ---------------------------------------------------------------------------
// Single-process degenerate case: num_ranks == 1 uses no sockets at all and
// must still match the native engine exactly (sanity for the shared build
// path and the trivial barrier).
// ---------------------------------------------------------------------------

TEST_F(NetDifferential, SingleProcessDegenerateMatchesNative) {
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, viz::HsrAlgorithm::kActivePixel,
                viz::one_each({0}), viz::one_each({0}), 0);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  expect_identical(s, cfg, /*num_ranks=*/1);
}

// A launch that throws must still remove the rank-file directory it made.
// The death-test child points TMPDIR at a fresh directory and caps its own
// descriptor table at the lowest free slot, so the first listener cannot
// get a socket; afterwards that directory must be empty.
TEST_F(NetDifferential, LaunchFailureLeavesNoTempFiles) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto s =
      spec(viz::PipelineConfig::kRE_Ra_M, viz::HsrAlgorithm::kActivePixel,
           viz::one_each({0}), viz::one_each({1}), 1);
  EXPECT_EXIT(
      {
        std::string tmp =
            (std::filesystem::temp_directory_path() / "dc_launch_XXXXXX")
                .string();
        if (::mkdtemp(tmp.data()) == nullptr) std::_Exit(3);
        ::setenv("TMPDIR", tmp.c_str(), 1);
        const int lowest = ::open("/dev/null", O_RDONLY);
        ::close(lowest);
        rlimit old{};
        ::getrlimit(RLIMIT_NOFILE, &old);
        rlimit capped = old;
        capped.rlim_cur = static_cast<rlim_t>(lowest);
        ::setrlimit(RLIMIT_NOFILE, &capped);
        std::string what;
        try {
          (void)viz::run_iso_app_distributed(s, core::RuntimeConfig{}, 1, 2);
        } catch (const std::exception& e) {
          // Lift the cap before e.what(): UBSan's vptr check opens a pipe.
          ::setrlimit(RLIMIT_NOFILE, &old);
          what = e.what();
        }
        ::setrlimit(RLIMIT_NOFILE, &old);
        const bool empty = std::filesystem::is_empty(tmp);
        std::filesystem::remove_all(tmp);
        if (what.find("socket") == std::string::npos) {
          std::fprintf(stderr, "unexpected outcome: '%s'\n", what.c_str());
          std::_Exit(1);
        }
        std::_Exit(empty ? 0 : 2);
      },
      ::testing::ExitedWithCode(0), "");
}

// ---------------------------------------------------------------------------
// Zero-copy data path: across 1, 2, and 4 ranks, the arena-backed DATA path
// renders BIT-IDENTICAL images and moves identical stream ledgers to the
// in-process native engine. Every run also enforces the copy counter: any
// rank that materialized a payload on the hot path exits 6 and fails the
// run — the end-to-end proof that bytes cross the wire without a copy.
// ---------------------------------------------------------------------------

TEST_F(NetDifferential, ZeroCopyPathMatchesNativeAtOneTwoFourRanks) {
  for (int ranks : {1, 2, 4}) {
    // Hosts must exist as ranks: scale the placement with the rank count.
    auto s = ranks == 1
                 ? spec(viz::PipelineConfig::kRE_Ra_M,
                        viz::HsrAlgorithm::kActivePixel, viz::one_each({0}),
                        viz::one_each({0}), 0)
             : ranks == 2
                 ? spec(viz::PipelineConfig::kRE_Ra_M,
                        viz::HsrAlgorithm::kActivePixel, viz::one_each({0}),
                        {{1, 2}}, 1)
                 : spec(viz::PipelineConfig::kRE_Ra_M,
                        viz::HsrAlgorithm::kActivePixel, viz::one_each({0, 1}),
                        {{2, 2}, {3, 1}}, 3);
    for (std::uint64_t seed : {3ULL, 1717ULL}) {
      core::RuntimeConfig cfg;
      cfg.policy = core::Policy::kDemandDriven;
      cfg.rng_seed = seed;
      SCOPED_TRACE("ranks " + std::to_string(ranks) + " seed " +
                   std::to_string(seed));

      const viz::NativeRenderRun nat = viz::run_iso_app_native(s, cfg, 1);

      viz::DistributedRunOptions zc;
      zc.timeout_s = kGroupTimeout;
      const viz::DistributedRenderRun zrun =
          viz::run_iso_app_distributed(s, cfg, 1, ranks, zc);
      ASSERT_TRUE(zrun.ok) << zrun.error;

      EXPECT_EQ(zrun.digests, nat.sink->digests);
      ASSERT_EQ(zrun.images.size(), nat.sink->images.size());
      for (std::size_t u = 0; u < zrun.images.size(); ++u) {
        EXPECT_EQ(zrun.images[u], nat.sink->images[u]) << "uow " << u;
      }
      // Ledgers too: the wire must not change what flowed, only how.
      ASSERT_EQ(zrun.metrics.streams.size(), nat.metrics.streams.size());
      for (std::size_t i = 0; i < zrun.metrics.streams.size(); ++i) {
        EXPECT_EQ(zrun.metrics.streams[i].buffers,
                  nat.metrics.streams[i].buffers)
            << zrun.metrics.streams[i].name;
        EXPECT_EQ(zrun.metrics.streams[i].payload_bytes,
                  nat.metrics.streams[i].payload_bytes)
            << zrun.metrics.streams[i].name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fault injection vs the arena: a rank SIGKILLed mid-lease owns a private
// copy-on-write pool after fork, so its death — freelist mutex held, slots
// outstanding, whatever — cannot poison the parent's arena or its
// conservation counters.
// ---------------------------------------------------------------------------

TEST(NetDifferentialArena, KilledRankDoesNotPoisonParentArena) {
  auto& arena = core::BufferArena::global();
  // Touch the pool in the parent so the child inherits a warm freelist.
  { auto warm = arena.lease(4096); }
  const core::ArenaStats before = arena.stats();

  net::FaultHarness h(net::LaunchOptions{/*timeout_s=*/30.0});
  h.kill_rank(1, net::FaultTrigger::kBuffers, 1);
  const auto statuses = h.run(2, [](net::RankEnv& env) {
    // Every rank leases hard from ITS copy of the global arena...
    auto& a = core::BufferArena::global();
    std::vector<std::shared_ptr<std::vector<std::byte>>> held;
    for (int i = 0; i < 16; ++i) held.push_back(a.lease(8192));
    if (env.rank == 1 && env.fault != nullptr) {
      // ...and rank 1 is SIGKILLed right here, slots outstanding.
      env.fault->advance(net::FaultTrigger::kBuffers, 1);
      return 13;  // unreachable
    }
    return 0;
  });

  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].exit_code, 0);
  EXPECT_EQ(statuses[1].faults_injected, 1);
  EXPECT_NE(statuses[1].term_signal, 0);  // died of the injected SIGKILL

  // The parent's counters never moved: child leases happened in a private
  // COW pool, and the kill could not reach back into this process.
  const core::ArenaStats after = arena.stats();
  EXPECT_EQ(after.slots_leased, before.slots_leased);
  EXPECT_EQ(after.slots_returned, before.slots_returned);
  // And the parent pool still works — lease, return, conserve.
  { auto again = arena.lease(4096); }
  EXPECT_EQ(arena.stats().outstanding(), before.outstanding());
}

}  // namespace
}  // namespace dc
