#include "io/metrics.hpp"

#include "obs/metrics.hpp"

namespace dc::io {

void publish(const IoMetrics& m, obs::MetricsRegistry& reg,
             const std::string& prefix) {
  reg.set(prefix + ".read_calls", m.read_calls);
  reg.set(prefix + ".read_wait_s", m.read_wait_s);

  const std::string cache = prefix + ".cache.";
  reg.set(cache + "hits", m.cache.hits);
  reg.set(cache + "misses", m.cache.misses);
  reg.set(cache + "evictions", m.cache.evictions);
  reg.set(cache + "insertions", m.cache.insertions);
  reg.set(cache + "readahead_hits", m.cache.readahead_hits);
  reg.set(cache + "prefetch_issued", m.cache.prefetch_issued);
  reg.set(cache + "bytes_cached", m.cache.bytes_cached);
  reg.set(cache + "resident_blocks", m.cache.resident_blocks);

  reg.set(prefix + ".disks", static_cast<std::int64_t>(m.disks.size()));
  std::uint64_t requests = 0, bytes = 0;
  double queue_wait = 0.0, service = 0.0;
  for (const auto& d : m.disks) {
    requests += d.requests;
    bytes += d.bytes;
    queue_wait += d.queue_wait_s;
    service += d.service_s;
    const std::string base = prefix + ".disk.h" + std::to_string(d.host) +
                             ".d" + std::to_string(d.disk);
    reg.set(base + ".requests", d.requests);
    reg.set(base + ".bytes", d.bytes);
    reg.set(base + ".queue_wait_s", d.queue_wait_s);
    reg.set(base + ".service_s", d.service_s);
    reg.set(base + ".max_queue_depth",
            static_cast<std::uint64_t>(d.max_queue_depth));
  }
  reg.set(prefix + ".requests", requests);
  reg.set(prefix + ".bytes", bytes);
  reg.set(prefix + ".queue_wait_s", queue_wait);
  reg.set(prefix + ".service_s", service);
}

}  // namespace dc::io
