#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "core/runtime.hpp"
#include "test_util.hpp"

namespace dc::core {
namespace {

class OneShotSource : public SourceFilter {
 public:
  explicit OneShotSource(int buffers = 1) : buffers_(buffers) {}
  bool step(FilterContext& ctx) override {
    if (i_ >= buffers_) return false;
    ctx.charge(10.0);
    Buffer b = ctx.make_buffer(0);
    b.push(i_);
    ctx.write(0, b);
    return ++i_ < buffers_;
  }

 private:
  int buffers_;
  int i_ = 0;
};

TEST(RuntimeEdge, UserExceptionPropagatesOutOfRunUow) {
  class Throwing : public Filter {
   public:
    void process_buffer(FilterContext&, int, const Buffer&) override {
      throw std::runtime_error("application bug");
    }
  };
  sim::Simulation simulation;
  sim::Topology topo(simulation);
  test::add_plain_nodes(topo, 2);
  Graph g;
  g.add_source("s", [] { return std::make_unique<OneShotSource>(); });
  g.add_filter("t", [] { return std::make_unique<Throwing>(); });
  g.connect(0, 0, 1, 0);
  Placement p;
  p.place(0, 0).place(1, 1);
  Runtime rt(topo, g, p, {});
  EXPECT_THROW(rt.run_uow(), std::runtime_error);
}

// The simulation still holds events bound to a failed UOW, so the runtime
// refuses to run another instead of starting fresh copies beside stale ones.
TEST(RuntimeEdge, RunAfterAFilterThrewIsRefused) {
  auto inits = std::make_shared<int>(0);
  class ThrowsOnFirstBuffer : public Filter {
   public:
    explicit ThrowsOnFirstBuffer(std::shared_ptr<int> inits)
        : inits_(std::move(inits)) {}
    void init(FilterContext&) override { ++*inits_; }
    void process_buffer(FilterContext&, int, const Buffer&) override {
      throw std::runtime_error("consumer bug");
    }

   private:
    std::shared_ptr<int> inits_;
  };
  sim::Simulation simulation;
  sim::Topology topo(simulation);
  test::add_plain_nodes(topo, 1);
  Graph g;
  g.add_source("s", [] { return std::make_unique<OneShotSource>(); });
  g.add_filter("t",
               [inits] { return std::make_unique<ThrowsOnFirstBuffer>(inits); });
  g.connect(0, 0, 1, 0);
  Placement p;
  p.place(0, 0).place(1, 0);
  Runtime rt(topo, g, p, {});
  try {
    rt.run_uow();
    ADD_FAILURE() << "the filter's exception did not propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "consumer bug");
  }
  try {
    rt.run_uow();
    ADD_FAILURE() << "a second UOW ran on the failed runtime";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("consumer bug"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(*inits, 1);
}

TEST(RuntimeEdge, RejectsInvalidRuntimeConfig) {
  sim::Simulation simulation;
  sim::Topology topo(simulation);
  test::add_plain_nodes(topo, 1);
  Graph g;
  g.add_source("s", [] { return std::make_unique<OneShotSource>(); });
  class Sink : public Filter {
   public:
    void process_buffer(FilterContext&, int, const Buffer&) override {}
  };
  g.add_filter("t", [] { return std::make_unique<Sink>(); });
  g.connect(0, 0, 1, 0);
  Placement p;
  p.place(0, 0).place(1, 0);

  RuntimeConfig zero_window;
  zero_window.window = 0;
  EXPECT_THROW(Runtime(topo, g, p, zero_window), std::invalid_argument);

  RuntimeConfig negative_window;
  negative_window.window = -1;
  EXPECT_THROW(Runtime(topo, g, p, negative_window), std::invalid_argument);

  RuntimeConfig zero_buffer;
  zero_buffer.default_buffer_bytes = 0;
  EXPECT_THROW(Runtime(topo, g, p, zero_buffer), std::invalid_argument);

  // validate() is also callable on its own (shared with the native engine).
  EXPECT_NO_THROW(validate(RuntimeConfig{}));
  EXPECT_THROW(validate(zero_window), std::invalid_argument);
  EXPECT_THROW(validate(zero_buffer), std::invalid_argument);
}

TEST(RuntimeEdge, LivelockGuardCatchesZeroCostSpinningSource) {
  class Spinner : public SourceFilter {
   public:
    bool step(FilterContext&) override { return true; }  // no work, no output
  };
  class Sink : public Filter {
   public:
    void process_buffer(FilterContext&, int, const Buffer&) override {}
  };
  sim::Simulation simulation;
  sim::Topology topo(simulation);
  test::add_plain_nodes(topo, 1);
  Graph g;
  g.add_source("spin", [] { return std::make_unique<Spinner>(); });
  g.add_filter("sink", [] { return std::make_unique<Sink>(); });
  g.connect(0, 0, 1, 0);
  Placement p;
  p.place(0, 0).place(1, 0);
  RuntimeConfig cfg;
  cfg.max_events_per_uow = 10000;
  Runtime rt(topo, g, p, cfg);
  EXPECT_THROW(rt.run_uow(), std::runtime_error);
}

/// A filter with two input ports and two output ports: verifies dense port
/// handling, per-port EOW, and fair consumption across ports.
TEST(RuntimeEdge, MultiPortFanInFanOut) {
  struct Counters {
    std::uint64_t from_a = 0, from_b = 0;
    std::uint64_t out0 = 0, out1 = 0;
  };
  auto counters = std::make_shared<Counters>();

  class Router : public Filter {
   public:
    explicit Router(std::shared_ptr<Counters> c) : c_(std::move(c)) {}
    void process_buffer(FilterContext& ctx, int port, const Buffer& buf) override {
      ctx.charge(10.0);
      (port == 0 ? c_->from_a : c_->from_b) += 1;
      // Route by value parity to two downstream sinks.
      const auto v = buf.records<int>()[0];
      Buffer out = ctx.make_buffer(v % 2);
      out.push(v);
      ctx.write(v % 2, out);
    }

   private:
    std::shared_ptr<Counters> c_;
  };
  class CountSink : public Filter {
   public:
    explicit CountSink(std::uint64_t* slot) : slot_(slot) {}
    void process_buffer(FilterContext&, int, const Buffer&) override { ++*slot_; }

   private:
    std::uint64_t* slot_;
  };

  sim::Simulation simulation;
  sim::Topology topo(simulation);
  test::add_plain_nodes(topo, 3);
  Graph g;
  const int a = g.add_source("a", [] { return std::make_unique<OneShotSource>(8); });
  const int b = g.add_source("b", [] { return std::make_unique<OneShotSource>(6); });
  const int r = g.add_filter("router",
                             [counters] { return std::make_unique<Router>(counters); });
  const int s0 = g.add_filter(
      "even", [counters] { return std::make_unique<CountSink>(&counters->out0); });
  const int s1 = g.add_filter(
      "odd", [counters] { return std::make_unique<CountSink>(&counters->out1); });
  g.connect(a, 0, r, 0);
  g.connect(b, 0, r, 1);
  g.connect(r, 0, s0, 0);
  g.connect(r, 1, s1, 0);
  Placement p;
  p.place(a, 0).place(b, 0).place(r, 1).place(s0, 2).place(s1, 2);
  Runtime rt(topo, g, p, {});
  rt.run_uow();

  EXPECT_EQ(counters->from_a, 8u);
  EXPECT_EQ(counters->from_b, 6u);
  // Values 0..7 (4 even, 4 odd) and 0..5 (3 even, 3 odd).
  EXPECT_EQ(counters->out0, 7u);
  EXPECT_EQ(counters->out1, 7u);
}

TEST(RuntimeEdge, UowIndexVisibleToFilters) {
  auto seen = std::make_shared<std::vector<int>>();
  class Recorder : public SourceFilter {
   public:
    explicit Recorder(std::shared_ptr<std::vector<int>> s) : seen_(std::move(s)) {}
    bool step(FilterContext& ctx) override {
      seen_->push_back(ctx.uow_index());
      return false;
    }

   private:
    std::shared_ptr<std::vector<int>> seen_;
  };
  class Sink : public Filter {
   public:
    void process_buffer(FilterContext&, int, const Buffer&) override {}
  };
  sim::Simulation simulation;
  sim::Topology topo(simulation);
  test::add_plain_nodes(topo, 1);
  Graph g;
  g.add_source("rec", [seen] { return std::make_unique<Recorder>(seen); });
  g.add_filter("sink", [] { return std::make_unique<Sink>(); });
  g.connect(0, 0, 1, 0);
  Placement p;
  p.place(0, 0).place(1, 0);
  Runtime rt(topo, g, p, {});
  rt.run_uow();
  rt.run_uow();
  rt.run_uow();
  EXPECT_EQ(*seen, (std::vector<int>{0, 1, 2}));
}

TEST(RuntimeEdge, WriteToInvalidPortThrows) {
  class BadWriter : public SourceFilter {
   public:
    bool step(FilterContext& ctx) override {
      ctx.write(3, ctx.make_buffer(0));  // only port 0 exists
      return false;
    }
  };
  class Sink : public Filter {
   public:
    void process_buffer(FilterContext&, int, const Buffer&) override {}
  };
  sim::Simulation simulation;
  sim::Topology topo(simulation);
  test::add_plain_nodes(topo, 1);
  Graph g;
  g.add_source("bad", [] { return std::make_unique<BadWriter>(); });
  g.add_filter("sink", [] { return std::make_unique<Sink>(); });
  g.connect(0, 0, 1, 0);
  Placement p;
  p.place(0, 0).place(1, 0);
  Runtime rt(topo, g, p, {});
  EXPECT_THROW(rt.run_uow(), std::out_of_range);
}

TEST(RuntimeEdge, ReadDiskFromNonSourceThrows) {
  class BadReader : public Filter {
   public:
    void process_buffer(FilterContext& ctx, int, const Buffer&) override {
      ctx.read_disk(0, 100);
    }
  };
  sim::Simulation simulation;
  sim::Topology topo(simulation);
  test::add_plain_nodes(topo, 1);
  Graph g;
  g.add_source("s", [] { return std::make_unique<OneShotSource>(); });
  g.add_filter("bad", [] { return std::make_unique<BadReader>(); });
  g.connect(0, 0, 1, 0);
  Placement p;
  p.place(0, 0).place(1, 0);
  Runtime rt(topo, g, p, {});
  EXPECT_THROW(rt.run_uow(), std::logic_error);
}

TEST(RuntimeEdge, SingleHostWholePipelineWorks) {
  auto total = std::make_shared<std::uint64_t>(0);
  class Sum : public Filter {
   public:
    explicit Sum(std::shared_ptr<std::uint64_t> t) : t_(std::move(t)) {}
    void process_buffer(FilterContext&, int, const Buffer& b) override {
      *t_ += b.records<int>()[0];
    }

   private:
    std::shared_ptr<std::uint64_t> t_;
  };
  sim::Simulation simulation;
  sim::Topology topo(simulation);
  test::add_plain_nodes(topo, 1);
  Graph g;
  g.add_source("s", [] { return std::make_unique<OneShotSource>(10); });
  g.add_filter("sum", [total] { return std::make_unique<Sum>(total); });
  g.connect(0, 0, 1, 0);
  Placement p;
  p.place(0, 0).place(1, 0, 3);  // 3 colocated copies sharing the queue
  Runtime rt(topo, g, p, {});
  rt.run_uow();
  EXPECT_EQ(*total, 45u);
}

TEST(RuntimeEdge, TraceRecordsLifecycleEvents) {
  class Sink : public Filter {
   public:
    void process_buffer(FilterContext& ctx, int, const Buffer&) override {
      ctx.charge(10.0);
    }
  };
  sim::Simulation simulation;
  sim::Topology topo(simulation);
  test::add_plain_nodes(topo, 2);
  Graph g;
  g.add_source("src", [] { return std::make_unique<OneShotSource>(5); });
  g.add_filter("sink", [] { return std::make_unique<Sink>(); });
  g.connect(0, 0, 1, 0);
  Placement p;
  p.place(0, 0).place(1, 1);
  Runtime rt(topo, g, p, {});
  rt.trace().enable();
  rt.run_uow();
  EXPECT_EQ(rt.trace().count("dispatch"), 5u);
  EXPECT_EQ(rt.trace().count("consume"), 5u);
  EXPECT_EQ(rt.trace().count("eow"), 2u);     // source + sink
  EXPECT_EQ(rt.trace().count("finish"), 2u);
  // Detail strings carry filter name, copy index, and host.
  EXPECT_NE(rt.trace().dump().find("src#0@h0"), std::string::npos);

  // Disabled by default: a fresh runtime records nothing.
  Runtime rt2(topo, g, p, {});
  rt2.run_uow();
  EXPECT_TRUE(rt2.trace().records().empty());
}

TEST(RuntimeEdge, TraceOffByDefaultCostsNothing) {
  sim::Simulation simulation;
  sim::Topology topo(simulation);
  test::add_plain_nodes(topo, 1);
  Graph g;
  g.add_source("s", [] { return std::make_unique<OneShotSource>(3); });
  class Sink : public Filter {
   public:
    void process_buffer(FilterContext&, int, const Buffer&) override {}
  };
  g.add_filter("k", [] { return std::make_unique<Sink>(); });
  g.connect(0, 0, 1, 0);
  Placement p;
  p.place(0, 0).place(1, 0);
  Runtime rt(topo, g, p, {});
  rt.run_uow();
  EXPECT_FALSE(rt.trace().enabled());
  EXPECT_TRUE(rt.trace().records().empty());
}

TEST(RuntimeEdge, ResetMetricsClearsCounters) {
  sim::Simulation simulation;
  sim::Topology topo(simulation);
  test::add_plain_nodes(topo, 2);
  Graph g;
  g.add_source("s", [] { return std::make_unique<OneShotSource>(4); });
  class Sink : public Filter {
   public:
    void process_buffer(FilterContext&, int, const Buffer&) override {}
  };
  g.add_filter("k", [] { return std::make_unique<Sink>(); });
  g.connect(0, 0, 1, 0);
  Placement p;
  p.place(0, 0).place(1, 1);
  RuntimeConfig cfg;
  cfg.policy = Policy::kDemandDriven;
  Runtime rt(topo, g, p, cfg);
  rt.run_uow();
  EXPECT_GT(rt.metrics().streams[0].buffers, 0u);
  EXPECT_GT(rt.metrics().acks_total, 0u);
  rt.reset_metrics();
  EXPECT_EQ(rt.metrics().streams[0].buffers, 0u);
  EXPECT_EQ(rt.metrics().acks_total, 0u);
  EXPECT_TRUE(rt.metrics().instances.empty());
  rt.run_uow();  // still functional after reset
  EXPECT_EQ(rt.metrics().streams[0].buffers, 4u);
}

}  // namespace
}  // namespace dc::core
