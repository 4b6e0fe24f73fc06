#include "kv/point_index.h"

#include <cstring>
#include <utility>

#include "common/status.h"

namespace bx::kv {

namespace {

constexpr std::size_t kInitialSlots = 1024;

/// Mixes the zero-padded key words and its length (splitmix64 finalizer
/// steps), so keys that differ only in their last bytes spread too.
std::uint64_t hash_key(std::string_view key) noexcept {
  std::uint64_t words[2] = {0, 0};
  std::memcpy(words, key.data(), key.size());
  std::uint64_t h = key.size() * 0x9e3779b97f4a7c15ULL ^ words[0];
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h ^= words[1];
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

PointIndex::PointIndex() : slots_(kInitialSlots, Slot{}) {}

std::size_t PointIndex::probe(std::string_view key) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash_key(key) & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.key_len == 0 ||
        (slot.key_len == key.size() &&
         std::memcmp(slot.key, key.data(), key.size()) == 0)) {
      return i;
    }
  }
}

void PointIndex::upsert(std::string_view key, Location location) {
  BX_ASSERT(!key.empty() && key.size() <= kMaxKeyBytes);
  reserve(size_ + 1);
  Slot& slot = slots_[probe(key)];
  if (slot.key_len == 0) {
    std::memcpy(slot.key, key.data(), key.size());
    slot.key_len = static_cast<std::uint8_t>(key.size());
    ++size_;
  }
  slot.lpn = location.lpn;
  slot.offset = location.offset;
  slot.tombstone = location.tombstone;
}

std::optional<PointIndex::Location> PointIndex::find(
    std::string_view key) const noexcept {
  if (key.empty() || key.size() > kMaxKeyBytes) return std::nullopt;
  const Slot& slot = slots_[probe(key)];
  if (slot.key_len == 0) return std::nullopt;
  return Location{slot.lpn, slot.offset, slot.tombstone};
}

void PointIndex::reserve(std::size_t entries) {
  // Linear probing stays short at a load factor of at most 3/4.
  std::size_t capacity = slots_.size();
  while (entries * 4 > capacity * 3) capacity *= 2;
  if (capacity == slots_.size()) return;

  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(capacity, Slot{}));
  for (const Slot& slot : old) {
    if (slot.key_len == 0) continue;
    slots_[probe({slot.key, slot.key_len})] = slot;
  }
}

void PointIndex::clear() noexcept {
  for (Slot& slot : slots_) slot.key_len = 0;
  size_ = 0;
}

}  // namespace bx::kv
