// Immutable sorted runs persisted through the FTL.
//
// Page format: records packed back-to-back, never spanning pages:
//   [u8 key_len][u8 flags][u16 value_len][key bytes][value bytes]
// flags bit0 = tombstone. A key_len of 0 terminates a page early.
//
// Like PinK, the indexes are kept wholly in device DRAM. Each run keeps a
// sorted index (one entry per record: key, page, offset) for ordered scans
// and compaction; point lookups go through the engine-wide PointIndex
// (kv/point_index.h) instead, so a GET is one index probe + one NAND page
// read, parsed in place by read_record().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "kv/memtable.h"
#include "nand/ftl.h"

namespace bx::kv {

struct IndexEntry {
  std::string key;
  std::uint32_t page = 0;    // page index within the run
  std::uint16_t offset = 0;  // byte offset within the page
  std::uint64_t seq = 0;
  bool tombstone = false;
};

struct SstableMeta {
  std::uint64_t id = 0;
  std::uint64_t first_lpn = 0;
  std::uint32_t page_count = 0;
  std::vector<IndexEntry> index;  // sorted by key
};

/// One record parsed in place: `key` and `value` view the page it was
/// parsed from.
struct RecordView {
  std::string_view key;
  ConstByteSpan value;
  bool tombstone = false;
};

/// Record-level size of one entry on a page.
std::uint32_t record_size(const KvEntry& entry) noexcept;

/// Builds one run from sorted entries. `lpns` must provide one logical page
/// per output page; `pages_needed` computes that count up front. Pages are
/// programmed through the FTL with the given blocking mode.
class SstableBuilder {
 public:
  explicit SstableBuilder(std::uint32_t page_size);

  /// Entries must arrive in strictly increasing key order.
  void add(const KvEntry& entry);

  [[nodiscard]] std::uint32_t pages_needed() const noexcept {
    return static_cast<std::uint32_t>(pages_.size());
  }
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return index_.size();
  }

  /// Writes the pages to `lpns[0..pages_needed)` and returns the metadata.
  StatusOr<SstableMeta> finish(nand::Ftl& ftl,
                               const std::vector<std::uint64_t>& lpns,
                               std::uint64_t id,
                               nand::NandFlash::Blocking blocking);

 private:
  std::uint32_t page_size_;
  std::vector<ByteVec> pages_;
  std::uint32_t cursor_ = 0;  // offset within the current page
  std::vector<IndexEntry> index_;
  std::string last_key_;
};

/// Parses the record at `offset` of `page`; nullopt past the page's
/// terminator or if the record runs off the page.
std::optional<RecordView> parse_record(ConstByteSpan page,
                                       std::uint32_t offset) noexcept;

/// Reads page `lpn` into `page` (one NAND read) and parses the record at
/// `offset`, which an index says holds `key`: kDataLoss if it does not.
StatusOr<RecordView> read_record(nand::Ftl& ftl, std::uint64_t lpn,
                                 std::uint32_t offset, std::string_view key,
                                 ByteSpan page);

/// Reads every entry of the run in key order (compaction input).
StatusOr<std::vector<KvEntry>> sstable_read_all(nand::Ftl& ftl,
                                                const SstableMeta& meta);

}  // namespace bx::kv
