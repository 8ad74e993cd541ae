#include "sort/external_sort.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "core/crc32c.hpp"
#include "core/filter.hpp"
#include "io/chunk_store.hpp"
#include "io/reader.hpp"
#include "io/spill.hpp"

namespace dc::sort {

namespace {

/// splitmix64: the record-key generator of the materialized runs. Chosen so
/// write_sort_runs() and nothing else defines the dataset — the filters just
/// move bytes.
std::uint64_t next_key(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Source: scans `runs_per_reader` runs from the host-local disk, producing
/// key/payload records. Two modes: synthesized deterministically from
/// ctx.rng() (the stand-in for a stored input file), or — when `reader` is
/// set — streamed from the on-disk chunk store written by write_sort_runs()
/// (genuinely out-of-core).
class ReadRecordsFilter final : public core::SourceFilter {
 public:
  ReadRecordsFilter(SortWorkload w, io::ChunkReader* reader, int prefetch_depth)
      : w_(w), reader_(reader), prefetch_depth_(prefetch_depth) {}

  void init(core::FilterContext& ctx) override {
    run_ = 0;
    if (reader_ == nullptr) return;
    std::vector<int> runs(static_cast<std::size_t>(w_.runs_per_reader));
    std::iota(runs.begin(), runs.end(), ctx.instance_index() * w_.runs_per_reader);
    stream_ = io::ReadStream(*reader_, std::move(runs), /*timestep=*/0,
                             prefetch_depth_);
  }

  bool step(core::FilterContext& ctx) override {
    if (run_ >= w_.runs_per_reader) return false;
    ++run_;
    ctx.read_disk(0, w_.records_per_run * w_.stored_record_bytes);
    ctx.charge(w_.gen_per_record * static_cast<double>(w_.records_per_run));
    core::Buffer out = ctx.make_buffer(0);
    if (reader_ != nullptr) {
      double waited = 0.0;
      const auto data = stream_.next(&waited);
      ctx.note_io_wait(waited);
      if (data->size() % sizeof(SortRecord) != 0) {
        throw std::runtime_error("sort: run payload is not whole records");
      }
      const std::size_t n = data->size() / sizeof(SortRecord);
      for (std::size_t i = 0; i < n; ++i) {
        SortRecord r;
        std::memcpy(&r, data->data() + i * sizeof(SortRecord), sizeof(r));
        if (!out.push(r)) {
          ctx.write(0, out);
          out = ctx.make_buffer(0);
          out.push(r);
        }
      }
    } else {
      auto& rng = ctx.rng();
      for (std::uint64_t i = 0; i < w_.records_per_run; ++i) {
        SortRecord r;
        r.key = rng.next_u64();
        r.payload = (static_cast<std::uint64_t>(ctx.instance_index()) << 32) | i;
        if (!out.push(r)) {
          ctx.write(0, out);
          out = ctx.make_buffer(0);
          out.push(r);
        }
      }
    }
    if (out.size() > 0) ctx.write(0, out);
    return run_ < w_.runs_per_reader;
  }

 private:
  SortWorkload w_;
  io::ChunkReader* reader_;
  int prefetch_depth_;
  int run_ = 0;
  io::ReadStream stream_;  ///< this copy's runs, read ahead per disk
};

bool record_less(const SortRecord& a, const SortRecord& b) {
  return a.key < b.key || (a.key == b.key && a.payload < b.payload);
}

/// Spill activity shared by all SortRun copies of one run_sort_app call,
/// reported through SortRun. Atomic: the simulator runs copies in one
/// thread, but the counters are harmless to keep engine-agnostic.
struct SpillTally {
  std::atomic<std::uint64_t> blocks{0};
  std::atomic<std::uint64_t> bytes{0};
};

/// Sequential reader over one spilled sorted block: chunked pread_at with a
/// chained CRC32C — crc32c(b, crc32c(a)) == crc32c(a++b), so the cursor
/// verifies the whole block against the stored record checksum by the time
/// it is exhausted without ever holding more than one chunk in memory.
class SpillCursor {
 public:
  SpillCursor(io::SpillFile& file, std::uint64_t token,
              std::size_t chunk_bytes)
      : file_(file),
        token_(token),
        total_(file.record_bytes(token)),
        // Whole records only: a chunk that ends mid-record would drop the
        // straddling record and desynchronize every later read.
        chunk_bytes_(std::max<std::size_t>(chunk_bytes, sizeof(SortRecord)) /
                     sizeof(SortRecord) * sizeof(SortRecord)) {
    refill();
  }

  [[nodiscard]] bool done() const { return idx_ >= buf_.size() && off_ >= total_; }
  [[nodiscard]] const SortRecord& front() const { return buf_[idx_]; }

  void advance() {
    ++idx_;
    if (idx_ >= buf_.size() && off_ < total_) refill();
    if (done()) {
      if (crc_ != file_.record_crc(token_)) {
        throw std::runtime_error("sort: spilled block failed its checksum");
      }
      file_.discard(token_);
    }
  }

 private:
  void refill() {
    const std::size_t n = std::min(chunk_bytes_, total_ - off_);
    raw_.resize(n);
    file_.pread_at(token_, off_, std::span<std::byte>(raw_));
    crc_ = core::crc32c(std::span<const std::byte>(raw_), crc_);
    buf_.resize(n / sizeof(SortRecord));
    std::memcpy(buf_.data(), raw_.data(), n);
    off_ += n;
    idx_ = 0;
  }

  io::SpillFile& file_;
  std::uint64_t token_;
  std::size_t total_;
  std::size_t chunk_bytes_;
  std::size_t off_ = 0;
  std::uint32_t crc_ = 0;
  std::vector<std::byte> raw_;
  std::vector<SortRecord> buf_;
  std::size_t idx_ = 0;
};

/// Accumulates records, sorts them at end of work, and emits one sorted run.
/// A filter with internal state — the class of applications that forces the
/// trailing combine filter (paper Section 1).
///
/// With a memory budget, accumulation is bounded: overflowing blocks are
/// sorted and spilled (io::SpillFile, CRC32C-checked), and end of work
/// k-way merges the spilled blocks with the in-memory tail. The emitted
/// record sequence is identical to the unbounded sort — the comparator is a
/// total order over (key, payload), so merge output equals sort output.
class SortRunFilter final : public core::Filter {
 public:
  SortRunFilter(SortWorkload w, std::size_t budget_bytes,
                std::string spill_dir, std::shared_ptr<SpillTally> tally)
      : w_(w),
        budget_bytes_(budget_bytes),
        spill_dir_(std::move(spill_dir)),
        tally_(std::move(tally)) {}

  void process_buffer(core::FilterContext& ctx, int /*port*/,
                      const core::Buffer& buf) override {
    const auto records = buf.records<SortRecord>();
    records_.insert(records_.end(), records.begin(), records.end());
    ctx.charge(w_.gen_per_record * 0.25 * static_cast<double>(records.size()));
    if (budget_bytes_ > 0 &&
        records_.size() * sizeof(SortRecord) >= budget_bytes_) {
      spill_block(ctx);
    }
  }

  void process_eow(core::FilterContext& ctx) override {
    std::sort(records_.begin(), records_.end(), record_less);
    const double n = static_cast<double>(records_.size());
    ctx.charge(w_.sort_per_record * n * std::max(1.0, std::log2(n + 1.0)));

    core::Buffer out = ctx.make_buffer(0);
    const auto emit = [&](const SortRecord& r) {
      if (!out.push(r)) {
        ctx.write(0, out);
        out = ctx.make_buffer(0);
        out.push(r);
      }
    };

    if (tokens_.empty()) {
      for (const SortRecord& r : records_) emit(r);
    } else {
      // k-way merge of the spilled blocks and the in-memory tail. Cursor
      // chunks split the remaining budget so the merge respects the same
      // bound the accumulation did.
      const std::size_t chunk =
          std::max<std::size_t>(budget_bytes_ / (tokens_.size() + 1),
                                4 * sizeof(SortRecord));
      std::vector<std::unique_ptr<SpillCursor>> cursors;
      cursors.reserve(tokens_.size());
      for (std::uint64_t t : tokens_) {
        cursors.push_back(std::make_unique<SpillCursor>(*spill_, t, chunk));
      }
      ctx.charge(w_.merge_per_record * n *
                 std::log2(static_cast<double>(tokens_.size() + 2)));
      std::size_t tail = 0;
      for (;;) {
        int best = -1;  // index into cursors, or k == in-memory tail
        const SortRecord* best_rec = nullptr;
        for (std::size_t c = 0; c < cursors.size(); ++c) {
          if (cursors[c]->done()) continue;
          if (best_rec == nullptr || record_less(cursors[c]->front(), *best_rec)) {
            best = static_cast<int>(c);
            best_rec = &cursors[c]->front();
          }
        }
        if (tail < records_.size() &&
            (best_rec == nullptr || record_less(records_[tail], *best_rec))) {
          emit(records_[tail++]);
          continue;
        }
        if (best_rec == nullptr) break;
        emit(*best_rec);
        cursors[static_cast<std::size_t>(best)]->advance();
      }
      tokens_.clear();
    }
    if (out.size() > 0) ctx.write(0, out);
  }

 private:
  void spill_block(core::FilterContext& ctx) {
    std::sort(records_.begin(), records_.end(), record_less);
    const double n = static_cast<double>(records_.size());
    ctx.charge(w_.sort_per_record * n * std::max(1.0, std::log2(n + 1.0)));
    if (spill_ == nullptr) {
      spill_ = std::make_unique<io::SpillFile>(
          std::filesystem::path(spill_dir_));
    }
    const auto bytes = std::as_bytes(std::span<const SortRecord>(records_));
    tokens_.push_back(spill_->append(bytes));
    if (tally_) {
      tally_->blocks.fetch_add(1, std::memory_order_relaxed);
      tally_->bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
    }
    records_.clear();
  }

  SortWorkload w_;
  std::size_t budget_bytes_;
  std::string spill_dir_;
  std::shared_ptr<SpillTally> tally_;
  std::vector<SortRecord> records_;
  std::unique_ptr<io::SpillFile> spill_;
  std::vector<std::uint64_t> tokens_;  ///< spilled sorted blocks, in order
};

/// Combine filter: merges the sorted runs into the final output and records
/// invariants for verification. With k upstream copies the merge work is
/// n * log2(k); the output is identical no matter how many copies ran.
class MergeRunsFilter final : public core::Filter {
 public:
  MergeRunsFilter(SortWorkload w, std::shared_ptr<SortOutcome> out, int k)
      : w_(w), out_(std::move(out)), k_(std::max(2, k)) {}

  void process_buffer(core::FilterContext& ctx, int /*port*/,
                      const core::Buffer& buf) override {
    const auto records = buf.records<SortRecord>();
    all_.insert(all_.end(), records.begin(), records.end());
    ctx.charge(w_.merge_per_record * static_cast<double>(records.size()));
  }

  void process_eow(core::FilterContext& ctx) override {
    ctx.charge(w_.merge_per_record * static_cast<double>(all_.size()) *
               std::log2(static_cast<double>(k_)));
    std::sort(all_.begin(), all_.end(),
              [](const SortRecord& a, const SortRecord& b) {
                return a.key < b.key ||
                       (a.key == b.key && a.payload < b.payload);
              });
    SortOutcome o;
    o.count = all_.size();
    o.sorted = true;
    for (std::size_t i = 0; i < all_.size(); ++i) {
      o.key_xor ^= all_[i].key;
      o.key_sum += all_[i].key;
      if (i > 0 && all_[i - 1].key > all_[i].key) o.sorted = false;
    }
    if (!all_.empty()) {
      o.min_key = all_.front().key;
      o.max_key = all_.back().key;
    }
    *out_ = o;
  }

 private:
  SortWorkload w_;
  std::shared_ptr<SortOutcome> out_;
  int k_;
  std::vector<SortRecord> all_;
};

}  // namespace

MaterializedRuns write_sort_runs(
    const std::filesystem::path& root, const SortWorkload& w,
    const std::vector<std::pair<int, int>>& reader_hosts, int disks_per_host) {
  if (disks_per_host < 1) {
    throw std::invalid_argument("write_sort_runs: disks_per_host must be >= 1");
  }
  io::ChunkStoreWriter writer(root);
  MaterializedRuns out;
  SortOutcome& e = out.expected;
  e.sorted = true;  // what a correct sort of these records must report
  bool first = true;
  std::vector<std::byte> payload(w.records_per_run * sizeof(SortRecord));
  int reader_index = 0;
  for (const auto& [host, copies] : reader_hosts) {
    for (int c = 0; c < copies; ++c, ++reader_index) {
      for (int j = 0; j < w.runs_per_reader; ++j) {
        const int run = reader_index * w.runs_per_reader + j;
        std::uint64_t state =
            w.seed ^ (0xd6e8feb86659fd93ULL * static_cast<std::uint64_t>(run + 1));
        for (std::uint64_t i = 0; i < w.records_per_run; ++i) {
          SortRecord r;
          r.key = next_key(state);
          r.payload = (static_cast<std::uint64_t>(run) << 32) | i;
          std::memcpy(payload.data() + i * sizeof(SortRecord), &r, sizeof(r));
          ++e.count;
          e.key_xor ^= r.key;
          e.key_sum += r.key;
          if (first || r.key < e.min_key) e.min_key = r.key;
          if (first || r.key > e.max_key) e.max_key = r.key;
          first = false;
        }
        writer.put_chunk({host, j % disks_per_host}, /*file_id=*/run,
                         /*chunk=*/run, /*timestep=*/0, payload);
        out.total_bytes += payload.size();
      }
    }
  }
  writer.finish();
  out.total_runs = reader_index * w.runs_per_reader;
  return out;
}

SortRun run_sort_app(sim::Topology& topo, const SortAppSpec& spec,
                     const core::RuntimeConfig& rt_config) {
  core::Graph graph;
  core::Placement placement;
  auto outcome = std::make_shared<SortOutcome>();

  const SortWorkload w = spec.workload;
  int total_sorters = 0;
  for (const auto& [host, copies] : spec.sorter_hosts) {
    (void)host;
    total_sorters += copies;
  }

  io::ChunkReader* chunk_reader = spec.reader;
  const int prefetch_depth = spec.prefetch_depth;
  const int reader =
      graph.add_source("ReadRecords", [w, chunk_reader, prefetch_depth] {
        return std::make_unique<ReadRecordsFilter>(w, chunk_reader,
                                                   prefetch_depth);
      });
  auto tally = std::make_shared<SpillTally>();
  const std::size_t sort_budget = spec.sort_memory_budget_bytes;
  const std::string spill_dir = spec.spill_dir;
  const int sorter =
      graph.add_filter("SortRun", [w, sort_budget, spill_dir, tally] {
        return std::make_unique<SortRunFilter>(w, sort_budget, spill_dir,
                                               tally);
      });
  const int merger = graph.add_filter("MergeRuns", [w, outcome, total_sorters] {
    return std::make_unique<MergeRunsFilter>(w, outcome, total_sorters);
  });
  graph.connect(reader, 0, sorter, 0, spec.buffer_bytes, spec.buffer_bytes);
  graph.connect(sorter, 0, merger, 0, spec.buffer_bytes, spec.buffer_bytes);

  for (const auto& [host, copies] : spec.reader_hosts) {
    placement.place(reader, host, copies);
  }
  for (const auto& [host, copies] : spec.sorter_hosts) {
    placement.place(sorter, host, copies);
  }
  placement.place(merger, spec.merge_host, 1);

  core::Runtime rt(topo, graph, placement, rt_config);
  SortRun run;
  run.makespan = rt.run_uow();
  run.outcome = *outcome;
  run.metrics = rt.metrics();
  run.spilled_blocks = tally->blocks.load(std::memory_order_relaxed);
  run.spilled_bytes = tally->bytes.load(std::memory_order_relaxed);
  return run;
}

}  // namespace dc::sort
