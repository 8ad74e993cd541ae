#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/buffer.hpp"

namespace dc::core {

/// Freelist retention caps of one BufferArena: beyond these a returned slot
/// is freed instead of refiled. The defaults are the historical hardcoded
/// values, so an arena constructed without options behaves exactly as before;
/// a MemoryGovernor tightens them on governed hosts (retained bytes bounded
/// by the memory budget) and restores them on destruction.
struct ArenaOptions {
  std::size_t max_slots_per_class = 64;
  std::size_t max_retained_bytes = 128u * 1024u * 1024u;
};

/// Point-in-time counters of one BufferArena. Leases and returns are
/// counted at the storage-slot level (one slot == one backing
/// std::vector<std::byte>, however many Buffer handles share it), so
/// conservation is a single equation: after every Buffer referencing the
/// arena is gone, slots_leased == slots_returned. A double release is
/// structurally impossible — the return runs in the shared_ptr deleter,
/// which the runtime invokes exactly once — and the property tests assert
/// the equation across clean runs, aborts, and FaultHarness kills.
struct ArenaStats {
  std::uint64_t slots_leased = 0;    ///< storage slots handed out
  std::uint64_t slots_returned = 0;  ///< slots whose last reference dropped
  std::uint64_t pool_hits = 0;       ///< leases served from the freelist
  std::uint64_t pool_misses = 0;     ///< leases that had to allocate
  std::uint64_t bytes_leased = 0;    ///< sum of requested capacities
  /// Deliberate materializations of a DATA payload into fresh storage.
  /// Zero on the engine's zero-copy path by construction; code that copies
  /// a payload on purpose books it here, which is how the differential
  /// tests prove the hot path stayed copy-free.
  std::uint64_t payload_copies = 0;
  std::uint64_t payload_copy_bytes = 0;

  [[nodiscard]] std::uint64_t outstanding() const {
    return slots_leased - slots_returned;
  }
};

/// Pooled, refcounted buffer storage shared by the io, exec, and net layers
/// (ROADMAP open item 2: the zero-copy hot path). A chunk read by
/// io::DiskScheduler lands in an arena slot; the same slot travels through
/// exec::PortChannel as a core::Buffer and out the NIC as a net::Frame
/// payload — reference counts move, bytes do not.
///
/// Ownership rules (DESIGN.md §5.5):
///   - lease() hands out a shared_ptr whose deleter refiles the storage
///     into a per-size-class freelist. Dropping the last reference IS the
///     return; there is no explicit free and therefore no double-free.
///   - The deleter captures the internal pool by shared_ptr, so returns
///     remain safe even if they outlive the arena object itself.
///   - Size classes are power-of-two capacities; the freelist retains a
///     bounded number of slots per class (and bounded total bytes) and
///     simply frees the rest, so a burst never pins memory forever.
///   - After fork() the child owns a private copy-on-write pool; a child
///     dying mid-lease (SIGKILL fault injection) cannot poison the
///     parent's freelist or its conservation counters.
///
/// All methods are thread-safe.
class BufferArena {
 public:
  explicit BufferArena(ArenaOptions options = {});

  /// Leases one storage slot with at least `capacity_bytes` reserved. The
  /// vector is empty (size 0); receivers that need a sized span resize it.
  [[nodiscard]] std::shared_ptr<std::vector<std::byte>> lease(
      std::size_t capacity_bytes);

  /// Leases a slot and wraps it as an empty fixed-capacity stream Buffer —
  /// the engines' make_buffer primitive.
  [[nodiscard]] Buffer make(std::size_t capacity_bytes);

  /// Books one deliberate payload copy of `bytes` (see ArenaStats).
  void note_payload_copy(std::size_t bytes);

  /// The size-class capacity a lease of `capacity_bytes` is filed under:
  /// the next power of two, floored at the minimum retained class. Callers
  /// sizing payloads to exactly fill a pooled slot (benchmarks, wire
  /// batching) use this instead of hard-coding the class boundaries.
  [[nodiscard]] static std::size_t slot_capacity(std::size_t capacity_bytes);

  [[nodiscard]] ArenaStats stats() const;

  /// Replaces the retention caps at runtime (thread-safe). Already-retained
  /// slots above the new caps are freed immediately, so tightening takes
  /// effect without waiting for churn. Returns the previous options so a
  /// caller scoping a tighter policy (MemoryGovernor::govern) can restore
  /// them.
  ArenaOptions set_retention(ArenaOptions options);
  [[nodiscard]] ArenaOptions retention() const;

  /// The process-wide arena every engine, scheduler, and transport uses by
  /// default. Tests may construct private arenas for isolation.
  static BufferArena& global();

 private:
  struct Pool;
  std::shared_ptr<Pool> pool_;
};

}  // namespace dc::core
