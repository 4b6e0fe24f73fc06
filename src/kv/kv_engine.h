// Device-side key-value engine (the KV-SSD firmware the paper's Figure 6
// experiments run against — an LSM-style in-device store in the spirit of
// the iterator-extended OpenSSD KVSSD it cites).
//
// PUTs land in a DRAM memtable (durable on the cap-backed OpenSSD) and
// flush to NAND as sorted runs in the background. One engine-wide point
// index (kv/point_index.h) maps every flushed key to its newest record, so
// a GET or EXIST checks the memtable, then makes one index probe and at
// most one NAND read, parsed in place in an engine-owned page buffer. The
// index changes in two places only: a flush inserts the new run's entries
// (newest wins) and a compaction rebuilds it from the merged run. Runs
// keep their own sorted indexes for scans and compaction, and are
// merge-compacted when they pile up; a compaction writes its output before
// it retires any input, so running out of space leaves the store as it
// was. Device-CPU costs are charged to the shared SimClock so Figure 6's
// NAND-on throughput reflects both transfer and firmware time.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "kv/memtable.h"
#include "kv/point_index.h"
#include "kv/sstable.h"
#include "nand/ftl.h"

namespace bx::kv {

class KvEngine {
 public:
  struct Config {
    /// LPN range owned by the KV store within the shared FTL.
    std::uint64_t lpn_base = 0;
    std::uint64_t lpn_count = 0;

    std::size_t flush_threshold_bytes = 1 << 20;  // 1 MiB memtable
    std::size_t max_runs = 8;                     // compact beyond this

    std::uint8_t max_key_bytes = 16;       // NVMe-KV style SQE-resident keys
    std::uint32_t max_value_bytes = 4000;  // record must fit one page
    std::size_t max_open_iterators = 16;   // device SRAM budget

    // Device CPU costs (Arm firmware), charged per operation.
    Nanoseconds cpu_put_ns = 1'500;
    Nanoseconds cpu_get_ns = 2'000;
    Nanoseconds cpu_delete_ns = 1'200;
    Nanoseconds cpu_exist_ns = 800;
    Nanoseconds cpu_flush_per_entry_ns = 120;
    Nanoseconds cpu_compact_per_entry_ns = 250;
    Nanoseconds cpu_iter_per_entry_ns = 400;
  };

  KvEngine(nand::Ftl& ftl, SimClock& clock, Config config);

  /// A PUT or DEL that returns OK is applied; one that fails leaves the
  /// store untouched, so a failed PUT is never readable. A write that
  /// finds the memtable still at its threshold after a failed flush
  /// flushes first, and fails with that flush's status if it fails again.
  Status put(std::string_view key, ConstByteSpan value);
  /// kNotFound if absent or deleted.
  StatusOr<ByteVec> get(std::string_view key);
  /// Returns true if the key existed.
  StatusOr<bool> del(std::string_view key);
  [[nodiscard]] StatusOr<bool> exist(std::string_view key);

  /// Up to `limit` live entries with key >= `start`, in key order.
  StatusOr<std::vector<KvEntry>> scan(std::string_view start,
                                      std::size_t limit);

  // --- stateful iterators (the SYSTOR '23 KVSSD's iterator interface,
  // which the paper's Figure 6 device implements) ---

  /// Opens an iterator positioned at the first key >= `start`; returns its
  /// id. Fails with kResourceExhausted when `max_open_iterators` are live.
  StatusOr<std::uint32_t> iter_open(std::string_view start);
  /// Returns up to `count` entries and advances the cursor. An exhausted
  /// iterator returns an empty batch (and stays open until closed).
  /// Iteration is cursor-consistent: each batch reflects live data.
  StatusOr<std::vector<KvEntry>> iter_next(std::uint32_t id,
                                           std::size_t count);
  Status iter_close(std::uint32_t id);
  [[nodiscard]] std::size_t open_iterators() const noexcept {
    return iterators_.size();
  }

  /// Forces the memtable to NAND (also used by NVMe flush). Succeeds once
  /// the memtable is on NAND; a compaction it triggers that fails is
  /// counted in compaction_failures() and retried by the next flush.
  Status flush();

  // --- statistics / introspection ---
  [[nodiscard]] std::uint64_t puts() const noexcept { return puts_; }
  [[nodiscard]] std::uint64_t gets() const noexcept { return gets_; }
  [[nodiscard]] std::uint64_t flushes() const noexcept { return flushes_; }
  [[nodiscard]] std::uint64_t compactions() const noexcept {
    return compactions_;
  }
  [[nodiscard]] std::uint64_t compaction_failures() const noexcept {
    return compaction_failures_;
  }
  [[nodiscard]] std::size_t run_count() const noexcept {
    return runs_.size();
  }
  [[nodiscard]] std::size_t memtable_bytes() const noexcept {
    return memtable_.approximate_bytes();
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  Status validate_key(std::string_view key) const;
  /// Flushes when the memtable has reached its threshold.
  Status maybe_flush();
  /// maybe_flush() after a write has been applied: a failure is deferred
  /// to the next write, which flushes before it inserts.
  void flush_after_write();
  /// Merges every run into one. On failure (kResourceExhausted when the
  /// output does not fit) the runs and the point index are unchanged.
  Status compact();
  /// Points index_ at every record of `run`, the newest run.
  void index_run(const SstableMeta& run);
  /// Reads the record that index_ says holds `key` into page_.
  StatusOr<RecordView> read_indexed(std::string_view key,
                                    const PointIndex::Location& location);
  /// Allocates `count` contiguous LPNs from the engine's range.
  StatusOr<std::vector<std::uint64_t>> allocate_lpns(std::uint32_t count);
  /// Trims `count` LPNs from `first` and returns them to the allocator.
  void release_lpns(std::uint64_t first, std::uint64_t count);

  nand::Ftl& ftl_;
  SimClock& clock_;
  Config config_;

  struct IteratorState {
    std::string next_key;  // resume position (inclusive)
    bool exhausted = false;
  };

  MemTable memtable_;
  std::deque<SstableMeta> runs_;  // oldest first
  PointIndex index_;              // newest flushed record of each key
  ByteVec page_;                  // NAND page buffer for point reads
  std::unordered_map<std::uint32_t, IteratorState> iterators_;
  std::uint32_t next_iterator_id_ = 1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_run_id_ = 1;
  std::uint64_t next_lpn_;        // bump allocator within the range
  // Freed (first, count) ranges below next_lpn_: sorted, never adjacent.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> free_ranges_;

  std::uint64_t puts_ = 0;
  std::uint64_t gets_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t compaction_failures_ = 0;
};

}  // namespace bx::kv
