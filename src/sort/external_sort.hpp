#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "sim/cluster.hpp"

namespace dc::io {
class ChunkReader;
}

namespace dc::sort {

/// A record being sorted. Key + payload, 16 bytes — the "low processing
/// requirements" data-movement workload class the paper contrasts with
/// isosurface rendering (cf. River / external sorting in related work).
struct SortRecord {
  std::uint64_t key = 0;
  std::uint64_t payload = 0;
};
static_assert(sizeof(SortRecord) == 16);

/// Parameters of the external-sort demo application.
struct SortWorkload {
  int runs_per_reader = 8;            ///< disk runs each reader copy scans
  std::uint64_t records_per_run = 4096;
  std::uint64_t stored_record_bytes = 64;  ///< on-disk footprint per record
  std::uint64_t seed = 12345;
  double gen_per_record = 40.0;   ///< parse/copy ops per record read
  double sort_per_record = 30.0;  ///< per record per log2(n) compare+swap
  double merge_per_record = 25.0;
};

/// What the merge filter observed; checked by tests and printed by the demo.
struct SortOutcome {
  std::uint64_t count = 0;
  std::uint64_t key_xor = 0;   ///< order-independent checksum
  std::uint64_t key_sum = 0;
  bool sorted = true;
  std::uint64_t min_key = 0;
  std::uint64_t max_key = 0;
};

/// Placement of the three-filter sort pipeline
/// (ReadRecords -> Sort copies -> Merge).
struct SortAppSpec {
  SortWorkload workload;
  std::vector<std::pair<int, int>> reader_hosts;  ///< (host, copies)
  std::vector<std::pair<int, int>> sorter_hosts;  ///< (host, copies)
  int merge_host = 0;
  std::size_t buffer_bytes = 32 * 1024;
  /// When set, the readers stream their runs from an on-disk chunk store
  /// (fully out-of-core) instead of synthesizing records: reader instance r
  /// scans store chunks [r * runs_per_reader, (r+1) * runs_per_reader) at
  /// timestep 0 — the layout write_sort_runs() materializes. The reader is
  /// shared across all copies (it is thread-safe).
  io::ChunkReader* reader = nullptr;
  /// Readahead of each reader copy's io::ReadStream: requests kept queued
  /// or in service per disk its runs sit on. 0 = demand reads only.
  int prefetch_depth = 2;
  /// 0 = each SortRun copy accumulates its whole input in memory (legacy).
  /// Nonzero: a copy bounds its working set to this many bytes of records —
  /// when accumulation would exceed it, the block is sorted and spilled to
  /// an io::SpillFile (CRC32C-checked), and end of work k-way merges the
  /// spilled blocks with the in-memory tail through chunked cursors. The
  /// emitted run (and therefore the SortOutcome) is identical either way:
  /// external sorting as a degenerate case of the governed spill path.
  std::size_t sort_memory_budget_bytes = 0;
  std::string spill_dir;  ///< empty resolves $TMPDIR, falls back to /tmp
};

/// What write_sort_runs() put on disk, plus the outcome any correct sort of
/// those records must report (count / key checksums / min / max).
struct MaterializedRuns {
  SortOutcome expected;
  int total_runs = 0;
  std::uint64_t total_bytes = 0;
};

/// Materializes the input of an out-of-core sort under `root`: one store
/// file per run, records generated deterministically from `w.seed` (so the
/// expected outcome is known without sorting). Reader instances are numbered
/// in `reader_hosts` order and each owns `w.runs_per_reader` consecutive run
/// ids; a reader's runs land in its own host's directory, spread over
/// `disks_per_host` disk subdirectories.
MaterializedRuns write_sort_runs(
    const std::filesystem::path& root, const SortWorkload& w,
    const std::vector<std::pair<int, int>>& reader_hosts,
    int disks_per_host = 1);

struct SortRun {
  SortOutcome outcome;
  sim::SimTime makespan = 0.0;
  core::Metrics metrics;
  /// Spill activity summed across the SortRun copies (zero when
  /// sort_memory_budget_bytes == 0 or the budget never overflowed).
  std::uint64_t spilled_blocks = 0;
  std::uint64_t spilled_bytes = 0;
};

/// Builds and runs one unit of work of the external sort on `topo`.
SortRun run_sort_app(sim::Topology& topo, const SortAppSpec& spec,
                     const core::RuntimeConfig& rt_config);

}  // namespace dc::sort
