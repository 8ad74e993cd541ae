#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/buffer.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace dc::core {

/// Execution context handed to filter callbacks. Implemented by the runtime;
/// filters use it to emit output buffers, declare compute / I/O demand, and
/// discover their own placement.
class FilterContext {
 public:
  virtual ~FilterContext() = default;

  // ---- identity / placement ------------------------------------------------
  /// Global index of this transparent copy among all copies of the filter.
  [[nodiscard]] virtual int instance_index() const = 0;
  /// Total number of transparent copies of this filter.
  [[nodiscard]] virtual int num_instances() const = 0;
  /// Index of this copy within its host's copy set.
  [[nodiscard]] virtual int copy_in_host() const = 0;
  /// Number of copies of this filter in this host's copy set.
  [[nodiscard]] virtual int copies_on_host() const = 0;
  /// Simulated host id this copy runs on.
  [[nodiscard]] virtual int host() const = 0;
  /// Host class ("rogue", "blue", ...) for grouping.
  [[nodiscard]] virtual const std::string& host_class() const = 0;
  /// Index of the unit-of-work currently being processed.
  [[nodiscard]] virtual int uow_index() const = 0;

  // ---- time / randomness ---------------------------------------------------
  [[nodiscard]] virtual sim::SimTime now() const = 0;
  [[nodiscard]] virtual sim::Rng& rng() = 0;

  // ---- demand declaration --------------------------------------------------
  /// Declares `ops` units of CPU work for the current callback. The runtime
  /// converts ops to virtual time through the host's processor-sharing CPU.
  virtual void charge(double ops) = 0;

  /// Declares a read of `bytes` from the host-local disk `local_disk`
  /// (source filters only; the read completes before this step's compute).
  virtual void read_disk(int local_disk, std::uint64_t bytes) = 0;

  /// Reports wall seconds this copy just spent blocked on real storage I/O
  /// (the out-of-core io::ChunkReader path). The native engine accounts it
  /// in core::InstanceMetrics::io_wait_time; the simulator ignores it — its
  /// disks are virtual and already charged through read_disk().
  virtual void note_io_wait(double seconds) { (void)seconds; }

  // ---- stream output -------------------------------------------------------
  /// Emits a buffer on output port `port`. Buffers are released downstream
  /// when the current callback's virtual compute completes; the copy does not
  /// consume further input until all emitted buffers have been accepted by
  /// the flow-control windows (backpressure).
  virtual void write(int port, Buffer buf) = 0;

  /// Creates an empty buffer sized to the negotiated buffer size of output
  /// port `port`.
  [[nodiscard]] virtual Buffer make_buffer(int port) const = 0;

  [[nodiscard]] virtual int num_input_ports() const = 0;
  [[nodiscard]] virtual int num_output_ports() const = 0;
  [[nodiscard]] virtual std::size_t buffer_bytes(int out_port) const = 0;
};

/// A user-defined application component (paper Section 2). One Filter object
/// is instantiated per transparent copy per unit-of-work; the object is
/// unaware of its siblings ("transparent copies").
///
/// Lifecycle per UOW:  init -> process_buffer* -> process_eow -> finalize.
class Filter {
 public:
  virtual ~Filter() = default;

  /// Pre-allocate resources; may charge() but must not write().
  virtual void init(FilterContext& ctx) { (void)ctx; }

  /// Handles one input buffer from `port`. Runs the real computation, then
  /// reports its cost via ctx.charge().
  virtual void process_buffer(FilterContext& ctx, int port, const Buffer& buf) = 0;

  /// Called once after every input stream delivered its end-of-work marker
  /// and all queued buffers were consumed. Filters that accumulate state
  /// (e.g. a z-buffer) flush it here.
  virtual void process_eow(FilterContext& ctx) { (void)ctx; }

  /// Release resources.
  virtual void finalize(FilterContext& ctx) { (void)ctx; }
};

/// A filter with no input streams, driven by the runtime. Each step()
/// typically reads one chunk from disk and emits buffers; returning false
/// signals end-of-work.
class SourceFilter : public Filter {
 public:
  void process_buffer(FilterContext&, int, const Buffer&) final {
    // Source filters have no input ports; the runtime never calls this.
  }

  /// Performs one unit of production. Return true if more work remains.
  virtual bool step(FilterContext& ctx) = 0;
};

using FilterFactory = std::function<std::unique_ptr<Filter>()>;

}  // namespace dc::core
