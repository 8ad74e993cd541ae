#include "core/metrics.hpp"

#include "obs/metrics.hpp"

namespace dc::core {

void publish(const Metrics& m, obs::MetricsRegistry& reg,
             const std::string& prefix) {
  reg.set(prefix + ".makespan", m.makespan);
  reg.set(prefix + ".acks_total", m.acks_total);
  reg.set(prefix + ".ack_bytes_total", m.ack_bytes_total);
  reg.set(prefix + ".instances", static_cast<std::int64_t>(m.instances.size()));

  std::uint64_t buffers_in = 0, buffers_out = 0;
  std::uint64_t bytes_in = 0, bytes_out = 0;
  std::uint64_t disk_bytes = 0, acks_sent = 0;
  double work_ops = 0.0, busy = 0.0, stall = 0.0;
  double queue_wait = 0.0, io_wait = 0.0;
  for (const auto& i : m.instances) {
    buffers_in += i.buffers_in;
    buffers_out += i.buffers_out;
    bytes_in += i.bytes_in;
    bytes_out += i.bytes_out;
    disk_bytes += i.disk_bytes;
    acks_sent += i.acks_sent;
    work_ops += i.work_ops;
    busy += i.busy_time;
    stall += i.stall_time;
    queue_wait += i.queue_wait_time;
    io_wait += i.io_wait_time;
  }
  reg.set(prefix + ".buffers_in", buffers_in);
  reg.set(prefix + ".buffers_out", buffers_out);
  reg.set(prefix + ".bytes_in", bytes_in);
  reg.set(prefix + ".bytes_out", bytes_out);
  reg.set(prefix + ".disk_bytes", disk_bytes);
  reg.set(prefix + ".acks_sent", acks_sent);
  reg.set(prefix + ".work_ops", work_ops);
  reg.set(prefix + ".busy_time", busy);
  reg.set(prefix + ".stall_time", stall);
  reg.set(prefix + ".queue_wait_time", queue_wait);
  reg.set(prefix + ".io_wait_time", io_wait);

  for (const auto& s : m.streams) {
    const std::string base = prefix + ".stream." + s.name;
    reg.set(base + ".buffers", s.buffers);
    reg.set(base + ".payload_bytes", s.payload_bytes);
    reg.set(base + ".message_bytes", s.message_bytes);
  }

  const FaultMetrics& f = m.faults;
  reg.set(prefix + ".faults.hosts_failed", f.hosts_failed);
  reg.set(prefix + ".faults.failovers", f.failovers);
  reg.set(prefix + ".faults.retransmits", f.retransmits);
  reg.set(prefix + ".faults.buffers_lost", f.buffers_lost);
  reg.set(prefix + ".faults.buffers_duplicated", f.buffers_duplicated);
  reg.set(prefix + ".faults.recovery_latency_total", f.recovery_latency_total);
  reg.set(prefix + ".faults.recovery_latency_max", f.recovery_latency_max);
}

}  // namespace dc::core
