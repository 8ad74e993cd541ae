#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace dc::obs {
class MetricsRegistry;
}

namespace dc::core {

class BufferArena;

/// Configuration of one per-host MemoryGovernor.
struct GovernorConfig {
  /// Byte budget for all in-memory queued stream buffers on this host.
  /// Elastic admissions stop when total queued bytes would exceed it; floor
  /// admissions (the fixed `window` slots every queue is entitled to) are
  /// exempt, so the budget should be sized at or above the floor reservation
  /// (stats().floor_reserved_bytes) for the high-water bound to be the
  /// configured number.
  std::size_t budget_bytes = 0;
  /// Where spill files are created. Empty = resolve $TMPDIR, fall back to
  /// /tmp (io::temp_root — the same resolution the distributed rank harness
  /// uses). The governor itself never touches the filesystem; engines read
  /// this when constructing their per-channel io::SpillFile.
  std::string spill_dir;
};

/// Point-in-time counters of one MemoryGovernor (all cumulative across UOWs
/// except high_water_bytes, which is a running maximum, and the config
/// echoes).
struct GovernorStats {
  std::uint64_t grants = 0;     ///< elastic admissions beyond a queue's floor
  std::uint64_t denials = 0;    ///< elastic requests refused (caller spills)
  std::uint64_t reclaims = 0;   ///< elastic bytes returned (consumer caught up)
  std::uint64_t spilled_buffers = 0;
  std::uint64_t spilled_bytes = 0;
  std::uint64_t readmitted_buffers = 0;
  std::uint64_t readmitted_bytes = 0;
  /// Max total in-memory queued bytes ever observed. With budget_bytes >=
  /// floor_reserved_bytes this never exceeds budget_bytes (the property the
  /// budget-conservation tests assert over 20 seeds).
  std::uint64_t high_water_bytes = 0;
  std::uint64_t budget_bytes = 0;
  /// PEAK sum over registered queues of floor_slots * slot_bytes: the memory
  /// the legacy fixed-window semantics were always entitled to. A running
  /// maximum (not the current sum) so it survives UOW teardown, which
  /// unregisters every queue.
  std::uint64_t floor_reserved_bytes = 0;
  std::uint64_t queues_registered = 0;  ///< cumulative register_queue calls

  GovernorStats& operator+=(const GovernorStats& o) {
    grants += o.grants;
    denials += o.denials;
    reclaims += o.reclaims;
    spilled_buffers += o.spilled_buffers;
    spilled_bytes += o.spilled_bytes;
    readmitted_buffers += o.readmitted_buffers;
    readmitted_bytes += o.readmitted_bytes;
    high_water_bytes = high_water_bytes > o.high_water_bytes
                           ? high_water_bytes
                           : o.high_water_bytes;
    budget_bytes = budget_bytes > o.budget_bytes ? budget_bytes : o.budget_bytes;
    floor_reserved_bytes += o.floor_reserved_bytes;
    queues_registered += o.queues_registered;
    return *this;
  }
};

/// Per-host memory budget divided elastically across copy-set queues — the
/// TPIE-style memory manager of ROADMAP item 3. Every governed queue keeps a
/// fixed floor of `window` slots (the legacy fixed-window semantics are a
/// strict lower bound: a floor admission NEVER fails), and beyond the floor
/// requests elastic grants from the shared budget:
///
///   - hot queues grow: an elastic request is granted while total queued
///     bytes stay within the budget AND the queue's elastic share stays
///     within its demand-proportional cap (surplus * demand_i / sum demand,
///     never below one slot, so a lone hot queue can take the whole surplus
///     and any queue can always hold at least one elastic slot when the
///     budget has room);
///   - cold queues shrink: every release of an elastic byte is a reclaim —
///     the surplus returns to the pool the moment a consumer catches up;
///   - denial means spill, not blocking: the caller (exec::PortChannel)
///     transparently spills the overflow buffer to disk and re-admits it in
///     FIFO order, so a producer never stalls on an idle-RAM host.
///
/// Demand is the cumulative count of a queue's elastic requests (granted or
/// not); counts are halved across the board when the total grows large, so
/// the ratios — and therefore the caps — track recent behavior. All methods
/// are thread-safe behind one mutex; callers (channels) already hold their
/// own locks, and the lock order channel -> governor is acyclic because the
/// governor never calls out.
class MemoryGovernor {
 public:
  explicit MemoryGovernor(GovernorConfig cfg = {});
  ~MemoryGovernor();

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  /// Registers one governed queue; `floor_slots * slot_bytes` is reserved
  /// (floor admissions always succeed). Returns the queue id.
  int register_queue(std::size_t floor_slots, std::size_t slot_bytes);

  /// Releases the queue's reservation and whatever it still occupies.
  void unregister_queue(int id);

  /// One item of `bytes` wants to enter queue `id` in memory.
  /// `within_floor` items are always admitted (and charged); elastic items
  /// are admitted while budget and demand-proportional cap allow. Returns
  /// false when the caller must spill instead.
  [[nodiscard]] bool try_admit(int id, std::size_t bytes, bool within_floor);

  /// The item left memory (popped by the consumer). `was_elastic` must echo
  /// what try_admit decided; elastic releases count as reclaims.
  void release(int id, std::size_t bytes, bool was_elastic);

  /// Books one spilled / re-admitted buffer (the channel calls these around
  /// its evict / restore hooks).
  void note_spill(std::size_t bytes);
  void note_readmit(std::size_t bytes);

  /// Applies budget-derived retention caps to `arena` (satellite: the
  /// arena's freelist caps are constructor parameters now; a governed host
  /// bounds retained slabs at min(default cap, budget)). The previous caps
  /// are restored when the governor is destroyed.
  void govern(BufferArena& arena);

  [[nodiscard]] GovernorStats stats() const;
  [[nodiscard]] const GovernorConfig& config() const { return cfg_; }

 private:
  struct Queue {
    std::size_t floor_bytes = 0;    ///< floor_slots * slot_bytes reservation
    std::size_t slot_bytes = 0;
    std::size_t mem_bytes = 0;      ///< total in-memory bytes (floor+elastic)
    std::size_t elastic_bytes = 0;  ///< the beyond-floor portion
    std::size_t floor_used = 0;     ///< the within-floor portion of mem_bytes
    std::uint64_t demand = 0;       ///< cumulative elastic requests
  };

  void charge_locked(Queue& q, std::size_t bytes, bool elastic);

  GovernorConfig cfg_;
  mutable std::mutex mu_;
  std::map<int, Queue> queues_;
  int next_id_ = 0;
  std::size_t used_bytes_ = 0;            ///< sum of queues' mem_bytes
  std::size_t floor_reserved_ = 0;        ///< sum of queues' floor_bytes
  std::size_t floor_used_ = 0;            ///< sum of queues' floor_used
  std::uint64_t total_demand_ = 0;
  GovernorStats stats_;
  BufferArena* governed_arena_ = nullptr;
};

/// Publishes governor counters into the unified registry under
/// `<prefix>.` dotted names (governor.grants, governor.spilled_bytes, ...),
/// the same bridge shape as core::publish / io::publish.
void publish(const GovernorStats& s, obs::MetricsRegistry& reg,
             const std::string& prefix = "governor");

}  // namespace dc::core
