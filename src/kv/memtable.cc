#include "kv/memtable.h"

#include "common/status.h"

namespace bx::kv {

MemTable::MemTable(std::uint64_t seed)
    : head_(std::make_unique<Node>()), rng_(seed) {
  head_->height = kMaxHeight;
}

int MemTable::random_height() {
  int height = 1;
  // p = 1/4 per extra level.
  while (height < kMaxHeight && (rng_.next() & 3) == 0) ++height;
  return height;
}

void MemTable::find_predecessors(std::string_view key,
                                 Node* result[kMaxHeight]) const {
  Node* node = head_.get();
  for (int level = kMaxHeight - 1; level >= 0; --level) {
    while (node->next[level] != nullptr &&
           node->next[level]->entry.key < key) {
      node = node->next[level];
    }
    result[level] = node;
  }
}

bool MemTable::put(std::string_view key, ConstByteSpan value,
                   std::uint64_t seq) {
  Node* preds[kMaxHeight];
  find_predecessors(key, preds);
  Node* existing = preds[0]->next[0];
  if (existing != nullptr && existing->entry.key == key) {
    bytes_ -= existing->entry.value.size();
    existing->entry.value.assign(value.begin(), value.end());
    existing->entry.seq = seq;
    existing->entry.tombstone = false;
    bytes_ += value.size();
    return false;
  }

  auto node = std::make_unique<Node>();
  node->entry.key.assign(key);
  node->entry.value.assign(value.begin(), value.end());
  node->entry.seq = seq;
  node->height = random_height();
  for (int level = 0; level < node->height; ++level) {
    node->next[level] = preds[level]->next[level];
    preds[level]->next[level] = node.get();
  }
  if (node->height > height_) height_ = node->height;
  bytes_ += key.size() + value.size() + sizeof(Node);
  ++count_;
  nodes_.push_back(std::move(node));
  return true;
}

void MemTable::del(std::string_view key, std::uint64_t seq) {
  // A tombstone is a put with the tombstone flag: it must shadow older
  // versions in flushed runs, so it cannot simply remove the node.
  put(key, {}, seq);
  Node* preds[kMaxHeight];
  find_predecessors(key, preds);
  Node* node = preds[0]->next[0];
  BX_ASSERT(node != nullptr && node->entry.key == key);
  node->entry.tombstone = true;
}

const KvEntry* MemTable::get(std::string_view key) const {
  Node* preds[kMaxHeight];
  find_predecessors(key, preds);
  const Node* node = preds[0]->next[0];
  if (node != nullptr && node->entry.key == key) return &node->entry;
  return nullptr;
}

void MemTable::Iterator::next() noexcept {
  node_ = static_cast<const Node*>(node_)->next[0];
}

const KvEntry& MemTable::Iterator::entry() const noexcept {
  return static_cast<const Node*>(node_)->entry;
}

MemTable::Iterator MemTable::begin() const noexcept {
  return Iterator(head_->next[0]);
}

MemTable::Iterator MemTable::seek(std::string_view key) const noexcept {
  Node* preds[kMaxHeight];
  find_predecessors(key, preds);
  return Iterator(preds[0]->next[0]);
}

void MemTable::clear() {
  for (auto& next : head_->next) next = nullptr;
  nodes_.clear();
  height_ = 1;
  count_ = 0;
  bytes_ = 0;
}

}  // namespace bx::kv
