#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dc::obs {

/// Unified named-counter registry: the single export surface for all of the
/// repo's metrics vocabularies. The structs (core::Metrics, kept by both
/// engines, and io::IoMetrics) stay the internal ledgers and feed the
/// registry at finalize through their publish() overloads; benches and
/// examples then emit ONE machine-readable JSON object.
///
/// Names are dotted paths ("exec.stream.RE->Ra.payload_bytes"); values are
/// either exact 64-bit integers (counters, byte ledgers — the conservation
/// tests compare these with ==) or doubles (durations, rates). to_json()
/// renders a flat, key-sorted object, deterministic for golden/schema tests.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  void set(const std::string& name, std::int64_t v);
  void set(const std::string& name, std::uint64_t v);
  void set(const std::string& name, double v);
  void add(const std::string& name, std::int64_t v);
  void add(const std::string& name, std::uint64_t v);
  void add(const std::string& name, double v);

  [[nodiscard]] bool has(const std::string& name) const;
  /// 0 when absent.
  [[nodiscard]] double value(const std::string& name) const;
  /// Exact for integer cells; truncates double cells. 0 when absent.
  [[nodiscard]] std::int64_t value_int(const std::string& name) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::vector<std::string> names() const;  ///< sorted

  /// {"a.b":1,"a.c":2.5,...} with keys sorted; integers print exactly,
  /// doubles via shortest-ish %g, non-finite values as null.
  [[nodiscard]] std::string to_json() const;

  void clear();

 private:
  struct Cell {
    bool is_int = true;
    std::int64_t i = 0;
    double d = 0.0;
  };

  mutable std::mutex mu_;
  std::map<std::string, Cell> cells_;  ///< ordered => deterministic JSON
};

}  // namespace dc::obs
