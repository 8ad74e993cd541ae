#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/metrics.hpp"
#include "io/metrics.hpp"
#include "obs/json.hpp"

// MetricsRegistry semantics (typed cells, deterministic key-sorted JSON),
// the strict JSON helper it exports through, and the publish() bridges that
// make both metrics surfaces (core::Metrics, kept by the simulator and the
// threaded engine, and io::IoMetrics) reachable through one
// MetricsRegistry::to_json().

namespace dc::obs {
namespace {

TEST(MetricsRegistry, SetAndReadBack) {
  MetricsRegistry reg;
  reg.set("a.count", std::int64_t{42});
  reg.set("a.ratio", 0.5);
  reg.set("a.big", std::uint64_t{1} << 40);
  EXPECT_TRUE(reg.has("a.count"));
  EXPECT_FALSE(reg.has("a.missing"));
  EXPECT_EQ(reg.value_int("a.count"), 42);
  EXPECT_DOUBLE_EQ(reg.value("a.ratio"), 0.5);
  EXPECT_EQ(reg.value_int("a.big"), std::int64_t{1} << 40);
  EXPECT_EQ(reg.value_int("a.missing"), 0);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, SetOverwritesAddAccumulates) {
  MetricsRegistry reg;
  reg.set("x", std::int64_t{1});
  reg.set("x", std::int64_t{5});
  EXPECT_EQ(reg.value_int("x"), 5);
  reg.add("x", std::int64_t{3});
  EXPECT_EQ(reg.value_int("x"), 8);
  reg.add("fresh", 1.5);  // add on absent key starts from zero
  EXPECT_DOUBLE_EQ(reg.value("fresh"), 1.5);
}

TEST(MetricsRegistry, NamesAreSorted) {
  MetricsRegistry reg;
  reg.set("z", std::int64_t{1});
  reg.set("a", std::int64_t{1});
  reg.set("m", std::int64_t{1});
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "m");
  EXPECT_EQ(names[2], "z");
}

TEST(MetricsRegistry, ToJsonIsDeterministicAndSorted) {
  MetricsRegistry reg;
  reg.set("b.int", std::int64_t{-7});
  reg.set("a.double", 2.5);
  EXPECT_EQ(reg.to_json(), "{\"a.double\":2.5,\"b.int\":-7}");
  EXPECT_EQ(reg.to_json(), reg.to_json());
}

TEST(MetricsRegistry, ToJsonRoundTripsThroughParser) {
  MetricsRegistry reg;
  reg.set("exec.stream.RE->Ra.payload_bytes", std::int64_t{123456789});
  reg.set("io.cache.hit_rate", 0.875);
  reg.set("weird \"name\"\\with\nescapes", std::int64_t{1});

  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(reg.to_json(), v, &err)) << err;
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.object.size(), 3u);
  const json::Value* payload = v.find("exec.stream.RE->Ra.payload_bytes");
  ASSERT_NE(payload, nullptr);
  EXPECT_DOUBLE_EQ(payload->num, 123456789.0);
  const json::Value* weird = v.find("weird \"name\"\\with\nescapes");
  ASSERT_NE(weird, nullptr);
  EXPECT_DOUBLE_EQ(weird->num, 1.0);
}

TEST(MetricsRegistry, NonFiniteDoublesRenderAsNull) {
  MetricsRegistry reg;
  reg.set("bad", std::numeric_limits<double>::infinity());
  reg.set("nan", std::nan(""));
  const std::string j = reg.to_json();
  EXPECT_EQ(j, "{\"bad\":null,\"nan\":null}");
  json::Value v;
  ASSERT_TRUE(json::parse(j, v, nullptr));
  EXPECT_EQ(v.find("bad")->type, json::Value::Type::kNull);
}

TEST(MetricsRegistry, ClearEmpties) {
  MetricsRegistry reg;
  reg.set("a", std::int64_t{1});
  reg.clear();
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(reg.to_json(), "{}");
}

// ---- strict JSON helper ---------------------------------------------------

TEST(ObsJson, ParsesNestedStructures) {
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(
      R"({"experiment":"x","metrics":{"a":1},"arr":[1,true,null,"s"]})", v,
      &err))
      << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("experiment")->str, "x");
  ASSERT_TRUE(v.find("metrics")->is_object());
  EXPECT_DOUBLE_EQ(v.find("metrics")->find("a")->num, 1.0);
  const json::Value* arr = v.find("arr");
  ASSERT_TRUE(arr->is_array());
  ASSERT_EQ(arr->array.size(), 4u);
  EXPECT_TRUE(arr->array[1].boolean);
  EXPECT_EQ(arr->array[2].type, json::Value::Type::kNull);
  EXPECT_EQ(arr->array[3].str, "s");
}

TEST(ObsJson, RejectsMalformedInput) {
  json::Value v;
  EXPECT_FALSE(json::parse("", v, nullptr));
  EXPECT_FALSE(json::parse("{", v, nullptr));
  EXPECT_FALSE(json::parse("{\"a\":1} trailing", v, nullptr));
  EXPECT_FALSE(json::parse("{\"a\":01}", v, nullptr));
  EXPECT_FALSE(json::parse("{'a':1}", v, nullptr));
}

TEST(ObsJson, EscapeRoundTripsThroughParse) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse("\"" + json::escape(nasty) + "\"", v, &err)) << err;
  EXPECT_EQ(v.str, nasty);
}

// ---- publish() bridges ----------------------------------------------------

TEST(Publish, CoreMetricsReachTheRegistry) {
  core::Metrics m;
  m.makespan = 1.5;
  m.acks_total = 10;
  m.ack_bytes_total = 640;
  core::InstanceMetrics a;
  a.buffers_in = 3;
  a.buffers_out = 4;
  a.bytes_in = 300;
  a.bytes_out = 400;
  a.busy_time = 0.5;
  a.queue_wait_time = 0.125;
  a.io_wait_time = 0.25;
  a.acks_sent = 2;
  core::InstanceMetrics b = a;
  m.instances = {a, b};
  core::StreamMetrics st;
  st.name = "src->wrk";
  st.buffers = 7;
  st.payload_bytes = 700;
  st.message_bytes = 756;
  m.streams = {st};
  m.faults.hosts_failed = 1;
  m.faults.failovers = 2;
  m.faults.retransmits = 3;
  m.faults.buffers_lost = 4;
  m.faults.buffers_duplicated = 5;
  m.faults.recovery_latency_total = 0.75;
  m.faults.recovery_latency_max = 0.5;

  MetricsRegistry reg;
  core::publish(m, reg);
  EXPECT_DOUBLE_EQ(reg.value("sim.makespan"), 1.5);
  EXPECT_EQ(reg.value_int("sim.acks_total"), 10);
  EXPECT_EQ(reg.value_int("sim.instances"), 2);
  EXPECT_EQ(reg.value_int("sim.buffers_in"), 6);   // summed over instances
  EXPECT_EQ(reg.value_int("sim.bytes_out"), 800);
  EXPECT_EQ(reg.value_int("sim.stream.src->wrk.buffers"), 7);
  EXPECT_EQ(reg.value_int("sim.stream.src->wrk.payload_bytes"), 700);
  EXPECT_DOUBLE_EQ(reg.value("sim.queue_wait_time"), 0.25);  // summed
  EXPECT_DOUBLE_EQ(reg.value("sim.io_wait_time"), 0.5);
  EXPECT_EQ(reg.value_int("sim.faults.failovers"), 2);

  // The threaded engine publishes the same ledger under "exec"; the prefix
  // keeps the engines apart in one registry.
  core::publish(m, reg, "exec");
  EXPECT_DOUBLE_EQ(reg.value("exec.makespan"), 1.5);
  EXPECT_EQ(reg.value_int("exec.buffers_out"), 8);
  EXPECT_DOUBLE_EQ(reg.value("exec.queue_wait_time"), 0.25);
  EXPECT_DOUBLE_EQ(reg.value("exec.io_wait_time"), 0.5);
  EXPECT_EQ(reg.value_int("exec.stream.src->wrk.payload_bytes"), 700);
  EXPECT_EQ(reg.value_int("exec.faults.hosts_failed"), 1);
  EXPECT_EQ(reg.value_int("exec.faults.failovers"), 2);
  EXPECT_EQ(reg.value_int("exec.faults.retransmits"), 3);
  EXPECT_EQ(reg.value_int("exec.faults.buffers_lost"), 4);
  EXPECT_EQ(reg.value_int("exec.faults.buffers_duplicated"), 5);
  EXPECT_DOUBLE_EQ(reg.value("exec.faults.recovery_latency_total"), 0.75);
  EXPECT_DOUBLE_EQ(reg.value("exec.faults.recovery_latency_max"), 0.5);
  EXPECT_EQ(reg.value_int("sim.acks_total"), 10);  // untouched
}

TEST(Publish, IoMetricsReachTheRegistry) {
  io::IoMetrics m;
  m.read_calls = 11;
  m.read_wait_s = 0.5;
  m.cache.hits = 8;
  m.cache.misses = 3;
  m.cache.insertions = 3;
  m.cache.evictions = 1;
  m.cache.resident_blocks = 2;
  io::DiskMetrics d;
  d.host = 0;
  d.disk = 1;
  d.requests = 3;
  d.bytes = 3000;
  m.disks = {d};

  MetricsRegistry reg;
  io::publish(m, reg);
  EXPECT_EQ(reg.value_int("io.read_calls"), 11);
  EXPECT_EQ(reg.value_int("io.cache.hits"), 8);
  EXPECT_EQ(reg.value_int("io.cache.resident_blocks"), 2);
  EXPECT_EQ(reg.value_int("io.disk.h0.d1.requests"), 3);
  EXPECT_EQ(reg.value_int("io.disk.h0.d1.bytes"), 3000);
  EXPECT_EQ(reg.value_int("io.requests"), 3);  // summed over disks
  EXPECT_EQ(reg.value_int("io.disks"), 1);
}

TEST(Publish, BothSurfacesShareOneJsonExport) {
  MetricsRegistry reg;
  core::publish(core::Metrics{}, reg);
  io::publish(io::IoMetrics{}, reg);
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(reg.to_json(), v, &err)) << err;
  EXPECT_NE(v.find("sim.makespan"), nullptr);
  EXPECT_NE(v.find("io.read_calls"), nullptr);
}

}  // namespace
}  // namespace dc::obs
