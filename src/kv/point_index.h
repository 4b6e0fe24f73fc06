// Engine-wide point index: where the newest flushed record of each key
// lives on NAND.
//
// A flat open-addressed table (linear probing, power-of-two capacity) with
// keys stored inline in the slots, so a probe touches one or two
// cachelines and no heap-allocated key. Keys are only inserted or
// overwritten, never erased one at a time: compaction clears every slot
// (keeping the storage) and re-indexes the merged run. The table is only
// ever walked to rehash into a larger one; nothing reads its slot order.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "nvme/spec.h"

namespace bx::kv {

class PointIndex {
 public:
  static constexpr std::size_t kMaxKeyBytes = nvme::KvKeyFields::kMaxKeyBytes;

  /// The record of a key: page `lpn`, byte `offset` within it.
  struct Location {
    std::uint64_t lpn = 0;
    std::uint16_t offset = 0;
    bool tombstone = false;
  };

  PointIndex();

  /// Points `key` (1..kMaxKeyBytes bytes) at `location`, replacing any
  /// older location of the same key.
  void upsert(std::string_view key, Location location);
  [[nodiscard]] std::optional<Location> find(
      std::string_view key) const noexcept;

  /// Grows the table so that `entries` keys fit without a rehash.
  void reserve(std::size_t entries);
  /// Forgets every key; the slots stay allocated.
  void clear() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    char key[kMaxKeyBytes];
    std::uint64_t lpn;
    std::uint16_t offset;
    std::uint8_t key_len;  // 0 marks an empty slot
    bool tombstone;
  };

  /// The slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(std::string_view key) const noexcept;

  std::vector<Slot> slots_;  // capacity is a power of two
  std::size_t size_ = 0;
};

}  // namespace bx::kv
