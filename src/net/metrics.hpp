#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace dc::obs {
class MetricsRegistry;
}

namespace dc::net {

/// Transport-level counters of one rank's exec::Engine: frames and bytes
/// by direction, per-type frame counts, and producer-side credit
/// stalls (dispatches that had to wait for a window slot freed by a CREDIT
/// or ACK frame). Counters are atomics — the send / recv threads and every
/// worker thread bump them concurrently; snapshot() flattens them for the
/// registry export.
struct NetMetrics {
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> frames_recv{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_recv{0};
  std::atomic<std::uint64_t> data_sent{0};
  std::atomic<std::uint64_t> data_recv{0};
  std::atomic<std::uint64_t> credits_sent{0};
  std::atomic<std::uint64_t> credits_recv{0};
  std::atomic<std::uint64_t> acks_sent{0};
  std::atomic<std::uint64_t> acks_recv{0};
  std::atomic<std::uint64_t> eows_sent{0};
  std::atomic<std::uint64_t> eows_recv{0};
  std::atomic<std::uint64_t> aborts_sent{0};
  std::atomic<std::uint64_t> aborts_recv{0};
  std::atomic<std::uint64_t> heartbeats_sent{0};
  std::atomic<std::uint64_t> heartbeats_recv{0};
  /// Scatter-gather writes issued; frames_sent / send_batches is the mean
  /// coalescing factor (>1 whenever ACK/CREDIT piggybacked on DATA).
  std::atomic<std::uint64_t> send_batches{0};
  std::atomic<std::uint64_t> credit_stalls{0};
  /// Microseconds producers spent blocked waiting for remote credit.
  std::atomic<std::uint64_t> credit_stall_us{0};
  /// Log2 histogram of individual stall durations: bucket i counts stalls
  /// in [2^i, 2^(i+1)) µs (bucket 0: < 2 µs). Coarse by design — it exists
  /// so the bench can report tail latency (p99) without tracing overhead.
  static constexpr int kStallBuckets = 24;
  std::array<std::atomic<std::uint64_t>, kStallBuckets> credit_stall_hist{};
  std::atomic<std::uint64_t> protocol_errors{0};

  /// Books one stall of `us` microseconds (count + total + histogram).
  void record_credit_stall(std::uint64_t us);
};

/// Plain-value snapshot of NetMetrics (copyable, serializable).
struct NetMetricsSnapshot {
  std::uint64_t frames_sent = 0, frames_recv = 0;
  std::uint64_t bytes_sent = 0, bytes_recv = 0;
  std::uint64_t data_sent = 0, data_recv = 0;
  std::uint64_t credits_sent = 0, credits_recv = 0;
  std::uint64_t acks_sent = 0, acks_recv = 0;
  std::uint64_t eows_sent = 0, eows_recv = 0;
  std::uint64_t aborts_sent = 0, aborts_recv = 0;
  std::uint64_t heartbeats_sent = 0, heartbeats_recv = 0;
  std::uint64_t send_batches = 0;
  std::uint64_t credit_stalls = 0, credit_stall_us = 0;
  std::array<std::uint64_t, NetMetrics::kStallBuckets> credit_stall_hist{};
  std::uint64_t protocol_errors = 0;

  NetMetricsSnapshot& operator+=(const NetMetricsSnapshot& o);

  /// Upper bound (µs) of the bucket holding the p-th percentile stall, 0
  /// when no stalls were recorded. p in (0, 1]; p99 = stall_percentile(.99).
  [[nodiscard]] std::uint64_t stall_percentile_us(double p) const;
};

[[nodiscard]] NetMetricsSnapshot snapshot(const NetMetrics& m);

/// Publishes a snapshot into the unified registry under `<prefix>.` names —
/// the transport counterpart of core::publish / io::publish.
void publish(const NetMetricsSnapshot& m, obs::MetricsRegistry& reg,
             const std::string& prefix = "net");

}  // namespace dc::net
