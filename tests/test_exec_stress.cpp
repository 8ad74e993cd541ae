#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/runtime.hpp"
#include "exec/engine.hpp"
#include "exec/watchdog.hpp"
#include "sim/rng.hpp"

// Concurrency property tests for the native threaded engine: randomized
// three-stage pipeline shapes over 20 seeds per property, each run bounded by
// a watchdog that aborts the process on a hang (a deadlocked engine must fail
// the suite loudly, not wedge it). Properties: buffer conservation, no
// deadlock at window=1, end-of-work always terminates every copy, and DD
// acknowledgment counts balance the dispatched buffers.

namespace dc::exec {
namespace {

constexpr std::chrono::seconds kRunBudget{120};  // generous for TSan runs
constexpr int kSeeds = 20;

/// Emits `total` stamped records, partitioned among the source's transparent
/// copies by stamp index so the union across copies is exactly [0, total).
class StampedSource : public core::SourceFilter {
 public:
  explicit StampedSource(int total) : total_(total) {}
  void init(core::FilterContext& ctx) override {
    next_ = ctx.instance_index();
    stride_ = ctx.num_instances();
  }
  bool step(core::FilterContext& ctx) override {
    if (next_ < total_) {
      core::Buffer b = ctx.make_buffer(0);
      b.push(static_cast<std::uint32_t>(next_));
      ctx.write(0, b);
      next_ += stride_;
    }
    return next_ < total_;
  }

 private:
  int total_;
  int next_ = 0;
  int stride_ = 1;
};

/// Middle stage: forwards each record unchanged.
class Relay : public core::Filter {
 public:
  void process_buffer(core::FilterContext& ctx, int,
                      const core::Buffer& buf) override {
    core::Buffer out = ctx.make_buffer(0);
    out.push(buf.records<std::uint32_t>()[0]);
    ctx.write(0, out);
  }
};

/// Terminal stage: counts every stamp it sees. Shared across the sink's
/// copies and threads, hence the mutex.
struct Collector {
  std::mutex mu;
  std::map<std::uint32_t, int> seen;
  std::atomic<int> eow_calls{0};
};

class CollectorSink : public core::Filter {
 public:
  explicit CollectorSink(std::shared_ptr<Collector> c) : c_(std::move(c)) {}
  void process_buffer(core::FilterContext&, int,
                      const core::Buffer& buf) override {
    std::lock_guard<std::mutex> lk(c_->mu);
    c_->seen[buf.records<std::uint32_t>()[0]]++;
  }
  void process_eow(core::FilterContext&) override { c_->eow_calls++; }

 private:
  std::shared_ptr<Collector> c_;
};

struct Shape {
  int buffers = 0;
  int src_copies = 1;
  std::vector<int> relay_copies;  ///< per relay host
  int sink_copies = 1;

  [[nodiscard]] int total_instances() const {
    int n = src_copies + sink_copies;
    for (int c : relay_copies) n += c;
    return n;
  }
};

Shape make_shape(std::uint64_t seed) {
  sim::Rng rng(seed * 7919 + 13);
  Shape s;
  s.buffers = 40 + static_cast<int>(rng.below(81));
  s.src_copies = 1 + static_cast<int>(rng.below(2));
  const int relay_hosts = 1 + static_cast<int>(rng.below(3));
  for (int h = 0; h < relay_hosts; ++h) {
    s.relay_copies.push_back(1 + static_cast<int>(rng.below(3)));
  }
  s.sink_copies = 1 + static_cast<int>(rng.below(2));
  return s;
}

struct StressResult {
  core::Metrics metrics;
  std::shared_ptr<Collector> collector;
  int uows = 0;
};

/// Builds src -> relay -> sink on the shape and runs it `uows` times on the
/// native engine, each UOW under a watchdog.
StressResult run_shape(const Shape& s, core::Policy pol, int window,
                       std::uint64_t rng_seed, int uows,
                       const std::string& what) {
  auto collector = std::make_shared<Collector>();
  core::Graph g;
  const int buffers = s.buffers;
  const int src = g.add_source(
      "src", [=] { return std::make_unique<StampedSource>(buffers); });
  const int mid =
      g.add_filter("relay", [] { return std::make_unique<Relay>(); });
  const int snk = g.add_filter(
      "sink", [collector] { return std::make_unique<CollectorSink>(collector); });
  g.connect(src, 0, mid, 0);
  g.connect(mid, 0, snk, 0);

  core::Placement p;
  p.place(src, 0, s.src_copies);
  for (std::size_t h = 0; h < s.relay_copies.size(); ++h) {
    p.place(mid, static_cast<int>(h) + 1, s.relay_copies[h]);
  }
  p.place(snk, static_cast<int>(s.relay_copies.size()) + 1, s.sink_copies);

  core::RuntimeConfig cfg;
  cfg.policy = pol;
  cfg.window = window;
  cfg.rng_seed = rng_seed;

  Engine eng(g, p, cfg);
  for (int u = 0; u < uows; ++u) {
    Watchdog dog(kRunBudget, what + " uow " + std::to_string(u));
    eng.run_uow();
  }
  StressResult r;
  r.metrics = eng.metrics();
  r.collector = collector;
  r.uows = uows;
  return r;
}

const core::Policy kPolicies[] = {core::Policy::kRoundRobin,
                                  core::Policy::kWeightedRoundRobin,
                                  core::Policy::kDemandDriven};

std::string label(core::Policy pol, std::uint64_t seed) {
  return "policy " + std::to_string(static_cast<int>(pol)) + " seed " +
         std::to_string(seed);
}

// ---- property 1: buffer conservation ---------------------------------------

TEST(ExecStress, EveryStampDeliveredExactlyOncePerUow) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Shape s = make_shape(seed);
    for (core::Policy pol : kPolicies) {
      const int window = 1 + static_cast<int>(seed % 4);
      const StressResult r =
          run_shape(s, pol, window, seed, /*uows=*/2,
                    "conservation " + label(pol, seed));
      ASSERT_EQ(r.collector->seen.size(), static_cast<std::size_t>(s.buffers))
          << label(pol, seed);
      for (const auto& [stamp, count] : r.collector->seen) {
        ASSERT_EQ(count, r.uows) << "stamp " << stamp << ", " << label(pol, seed);
      }
    }
  }
}

// ---- property 2: window=1 never deadlocks ----------------------------------

TEST(ExecStress, WindowOneCompletesUnderAllPolicies) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Shape s = make_shape(seed);
    for (core::Policy pol : kPolicies) {
      // Reaching this assertion at all means no deadlock: a hang would have
      // tripped the watchdog and crashed the test.
      const StressResult r = run_shape(s, pol, /*window=*/1, seed, 1,
                                       "window-1 " + label(pol, seed));
      ASSERT_EQ(r.collector->seen.size(), static_cast<std::size_t>(s.buffers))
          << label(pol, seed);
    }
  }
}

// ---- property 3: end-of-work terminates every copy -------------------------

TEST(ExecStress, EowReachesEverySinkCopy) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Shape s = make_shape(seed);
    for (core::Policy pol : kPolicies) {
      const StressResult r =
          run_shape(s, pol, /*window=*/4, seed, 1, "eow " + label(pol, seed));
      // Every copy of the sink's copy set observed end-of-work exactly once.
      ASSERT_EQ(r.collector->eow_calls.load(), s.sink_copies)
          << label(pol, seed);
      // Makespan is measured (wall-clock) and every instance reported in.
      ASSERT_GT(r.metrics.makespan, 0.0);
      ASSERT_EQ(r.metrics.instances.size(),
                static_cast<std::size_t>(s.total_instances()));
    }
  }
}

// ---- property 4: DD acknowledgments balance the dispatched buffers ---------

TEST(ExecStress, DemandDrivenAcksBalanceDispatches) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Shape s = make_shape(seed);
    const StressResult r =
        run_shape(s, core::Policy::kDemandDriven, /*window=*/2, seed, 1,
                  "dd-ack seed " + std::to_string(seed));
    std::uint64_t dispatched = 0;
    for (const auto& sm : r.metrics.streams) dispatched += sm.buffers;
    ASSERT_EQ(r.metrics.acks_total, dispatched) << "seed " << seed;
    // Consumers ack exactly what they dequeue.
    std::uint64_t acked = 0, consumed = 0;
    for (const auto& m : r.metrics.instances) {
      acked += m.acks_sent;
      consumed += m.buffers_in;
    }
    ASSERT_EQ(acked, consumed) << "seed " << seed;
  }
}

// ---- worker exceptions surface in run_uow, and the engine recovers ---------

class ThrowingFilter : public core::Filter {
 public:
  void process_buffer(core::FilterContext&, int,
                      const core::Buffer&) override {
    throw std::runtime_error("injected filter failure");
  }
};

TEST(ExecStress, FilterExceptionAbortsUowAndRethrows) {
  core::Graph g;
  const int src =
      g.add_source("src", [] { return std::make_unique<StampedSource>(50); });
  const int bad =
      g.add_filter("bad", [] { return std::make_unique<ThrowingFilter>(); });
  g.connect(src, 0, bad, 0);
  core::Placement p;
  p.place(src, 0, 2).place(bad, 1, 2);

  Engine eng(g, p, {});
  Watchdog dog(kRunBudget, "exception abort");
  EXPECT_THROW(eng.run_uow(), std::runtime_error);
}

}  // namespace
}  // namespace dc::exec
