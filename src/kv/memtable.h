// In-device-DRAM memtable: a probabilistic skiplist keyed by byte strings.
//
// The KV engine batches incoming PUTs here (each PUT is individually
// persisted to the value-log semantics the paper's KV-SSD assumes —
// in-device DRAM on the OpenSSD is battery/cap-backed, so a memtable insert
// counts as durable) and flushes to NAND as sorted runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace bx::kv {

struct KvEntry {
  std::string key;
  ByteVec value;
  std::uint64_t seq = 0;
  bool tombstone = false;
};

class MemTable {
 public:
  explicit MemTable(std::uint64_t seed = 0xbadc0ffee0ddf00dULL);

  /// Inserts or overwrites `key`. Returns true if the key was new.
  bool put(std::string_view key, ConstByteSpan value, std::uint64_t seq);

  /// Records a deletion (tombstone) for `key`.
  void del(std::string_view key, std::uint64_t seq);

  /// Latest state of `key`, including tombstones (callers must check);
  /// nullptr if absent. Valid until the next put, del or clear.
  [[nodiscard]] const KvEntry* get(std::string_view key) const;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t approximate_bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Ordered in-order iteration (for flush and scans).
  class Iterator {
   public:
    [[nodiscard]] bool valid() const noexcept { return node_ != nullptr; }
    void next() noexcept;
    [[nodiscard]] const KvEntry& entry() const noexcept;

   private:
    friend class MemTable;
    explicit Iterator(const void* node) noexcept : node_(node) {}
    const void* node_;
  };

  [[nodiscard]] Iterator begin() const noexcept;
  /// First entry with key >= `key`.
  [[nodiscard]] Iterator seek(std::string_view key) const noexcept;

  void clear();

 private:
  static constexpr int kMaxHeight = 12;

  struct Node {
    KvEntry entry;
    int height = 1;
    Node* next[kMaxHeight] = {};
  };

  int random_height();
  /// Greatest node with key < `key` at every level; result[0]->next[0] is
  /// the candidate.
  void find_predecessors(std::string_view key,
                         Node* result[kMaxHeight]) const;

  std::unique_ptr<Node> head_;
  std::vector<std::unique_ptr<Node>> nodes_;  // ownership pool
  int height_ = 1;
  std::size_t count_ = 0;
  std::size_t bytes_ = 0;
  Rng rng_;
};

}  // namespace bx::kv
