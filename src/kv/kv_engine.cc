#include "kv/kv_engine.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "common/logging.h"

namespace bx::kv {

KvEngine::KvEngine(nand::Ftl& ftl, SimClock& clock, Config config)
    : ftl_(ftl),
      clock_(clock),
      config_(config),
      page_(ftl.page_size()),
      next_lpn_(config.lpn_base) {
  BX_ASSERT(config.lpn_count > 0);
  BX_ASSERT(config.max_key_bytes <= nvme::KvKeyFields::kMaxKeyBytes);
  BX_ASSERT(config.lpn_base + config.lpn_count <= ftl.logical_pages());
  BX_ASSERT(config.max_value_bytes + 4u + config.max_key_bytes <=
            ftl.page_size());
}

Status KvEngine::validate_key(std::string_view key) const {
  if (key.empty()) return invalid_argument("empty key");
  if (key.size() > config_.max_key_bytes) {
    return {StatusCode::kInvalidArgument, "key too large"};
  }
  return Status::ok();
}

Status KvEngine::put(std::string_view key, ConstByteSpan value) {
  BX_RETURN_IF_ERROR(validate_key(key));
  if (value.size() > config_.max_value_bytes) {
    return invalid_argument("value too large");
  }
  clock_.advance(config_.cpu_put_ns);
  // Only a memtable left at its threshold by a failed flush flushes here.
  BX_RETURN_IF_ERROR(maybe_flush());
  memtable_.put(key, value, next_seq_++);
  ++puts_;
  flush_after_write();
  return Status::ok();
}

StatusOr<ByteVec> KvEngine::get(std::string_view key) {
  BX_RETURN_IF_ERROR(validate_key(key));
  clock_.advance(config_.cpu_get_ns);
  ++gets_;

  if (const KvEntry* hit = memtable_.get(key)) {
    if (hit->tombstone) return not_found("key deleted");
    return hit->value;
  }
  const auto location = index_.find(key);
  if (!location.has_value()) return not_found("key not found");
  // A tombstone still costs its NAND read, like any indexed record.
  auto record = read_indexed(key, *location);
  BX_RETURN_IF_ERROR(record.status());
  if (record->tombstone) return not_found("key deleted");
  return ByteVec(record->value.begin(), record->value.end());
}

StatusOr<bool> KvEngine::del(std::string_view key) {
  BX_RETURN_IF_ERROR(validate_key(key));
  clock_.advance(config_.cpu_delete_ns);
  auto existing = exist(key);
  BX_RETURN_IF_ERROR(existing.status());
  BX_RETURN_IF_ERROR(maybe_flush());
  memtable_.del(key, next_seq_++);
  flush_after_write();
  return *existing;
}

StatusOr<bool> KvEngine::exist(std::string_view key) {
  BX_RETURN_IF_ERROR(validate_key(key));
  clock_.advance(config_.cpu_exist_ns);
  if (const KvEntry* hit = memtable_.get(key)) return !hit->tombstone;
  const auto location = index_.find(key);
  if (!location.has_value()) return false;
  auto record = read_indexed(key, *location);
  BX_RETURN_IF_ERROR(record.status());
  return !record->tombstone;
}

StatusOr<RecordView> KvEngine::read_indexed(
    std::string_view key, const PointIndex::Location& location) {
  auto record = read_record(ftl_, location.lpn, location.offset, key, page_);
  if (record.is_ok() && record->tombstone != location.tombstone) {
    return data_loss("index and record disagree on tombstone");
  }
  return record;
}

StatusOr<std::vector<KvEntry>> KvEngine::scan(std::string_view start,
                                              std::size_t limit) {
  // K-way merge across the memtable and every run. For each distinct key,
  // the newest source wins (memtable, then runs newest to oldest);
  // tombstones suppress output but still consume the key everywhere.
  struct RunCursor {
    const SstableMeta* run = nullptr;
    std::size_t pos = 0;

    [[nodiscard]] bool valid() const noexcept {
      return pos < run->index.size();
    }
    [[nodiscard]] std::string_view key() const noexcept {
      return run->index[pos].key;
    }
  };

  std::vector<RunCursor> cursors;  // runs_ order: oldest..newest
  cursors.reserve(runs_.size());
  for (const SstableMeta& run : runs_) {
    RunCursor cursor;
    cursor.run = &run;
    cursor.pos = static_cast<std::size_t>(
        std::lower_bound(run.index.begin(), run.index.end(), start,
                         [](const IndexEntry& e, std::string_view k) {
                           return e.key < k;
                         }) -
        run.index.begin());
    if (cursor.valid()) cursors.push_back(cursor);
  }
  auto mem_it = memtable_.seek(start);

  std::vector<KvEntry> out;
  while (out.size() < limit) {
    // Smallest key across all sources.
    std::string_view best;
    bool have = false;
    if (mem_it.valid()) {
      best = mem_it.entry().key;
      have = true;
    }
    for (const RunCursor& cursor : cursors) {
      if (cursor.valid() && (!have || cursor.key() < best)) {
        best = cursor.key();
        have = true;
      }
    }
    if (!have) break;

    // Newest version of `best` wins; every source holding it advances.
    KvEntry chosen;
    bool chosen_set = false;
    if (mem_it.valid() && mem_it.entry().key == best) {
      chosen = mem_it.entry();
      chosen_set = true;
      mem_it.next();
    }
    for (auto it = cursors.rbegin(); it != cursors.rend(); ++it) {
      if (!it->valid() || it->key() != best) continue;
      if (!chosen_set) {
        const IndexEntry& at = it->run->index[it->pos];
        auto record = read_record(ftl_, it->run->first_lpn + at.page,
                                  at.offset, best, page_);
        BX_RETURN_IF_ERROR(record.status());
        chosen.key.assign(record->key);
        chosen.value.assign(record->value.begin(), record->value.end());
        chosen.seq = at.seq;
        chosen.tombstone = record->tombstone;
        chosen_set = true;
      }
      ++it->pos;
    }
    BX_ASSERT(chosen_set);
    if (!chosen.tombstone) out.push_back(std::move(chosen));
  }
  return out;
}

StatusOr<std::uint32_t> KvEngine::iter_open(std::string_view start) {
  if (iterators_.size() >= config_.max_open_iterators) {
    return resource_exhausted("too many open iterators");
  }
  const std::uint32_t id = next_iterator_id_++;
  IteratorState state;
  state.next_key.assign(start);
  iterators_.emplace(id, std::move(state));
  return id;
}

StatusOr<std::vector<KvEntry>> KvEngine::iter_next(std::uint32_t id,
                                                   std::size_t count) {
  const auto it = iterators_.find(id);
  if (it == iterators_.end()) return not_found("unknown iterator id");
  IteratorState& state = it->second;
  if (state.exhausted || count == 0) return std::vector<KvEntry>{};

  auto batch = scan(state.next_key, count);
  BX_RETURN_IF_ERROR(batch.status());
  clock_.advance(config_.cpu_iter_per_entry_ns * batch->size());
  if (batch->size() < count) {
    state.exhausted = true;
  }
  if (!batch->empty()) {
    // Resume strictly after the last returned key: its immediate
    // lexicographic successor (key + '\0').
    state.next_key = batch->back().key;
    state.next_key.push_back('\0');
  }
  return batch;
}

Status KvEngine::iter_close(std::uint32_t id) {
  if (iterators_.erase(id) == 0) return not_found("unknown iterator id");
  return Status::ok();
}

Status KvEngine::maybe_flush() {
  if (memtable_.approximate_bytes() < config_.flush_threshold_bytes) {
    return Status::ok();
  }
  return flush();
}

void KvEngine::flush_after_write() {
  // The write is applied and the memtable is durable, so a failed flush
  // does not fail it: the memtable stays at its threshold and the next
  // write retries the flush before it inserts.
  const Status flushed = maybe_flush();
  if (!flushed.is_ok()) {
    BX_LOG_WARN << "memtable flush deferred: " << flushed.to_string();
  }
}

StatusOr<std::vector<std::uint64_t>> KvEngine::allocate_lpns(
    std::uint32_t count) {
  if (count == 0) return std::vector<std::uint64_t>{};
  std::uint64_t first = next_lpn_;
  // First-fit over freed ranges, then the bump allocator.
  const auto fit = std::find_if(
      free_ranges_.begin(), free_ranges_.end(),
      [count](const auto& range) { return range.second >= count; });
  if (fit != free_ranges_.end()) {
    first = fit->first;
    fit->first += count;
    fit->second -= count;
    if (fit->second == 0) free_ranges_.erase(fit);
  } else if (next_lpn_ + count > config_.lpn_base + config_.lpn_count) {
    return resource_exhausted("KV LPN range exhausted");
  } else {
    next_lpn_ += count;
  }
  std::vector<std::uint64_t> out(count);
  for (std::uint32_t j = 0; j < count; ++j) out[j] = first + j;
  return out;
}

void KvEngine::release_lpns(std::uint64_t first, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const Status trimmed = ftl_.trim(first + i);
    if (!trimmed.is_ok()) {
      BX_LOG_WARN << "trim failed: " << trimmed.to_string();
    }
  }
  if (count == 0) return;
  // Insert in order and coalesce with both neighbours, so a long enough
  // hole is always found whole.
  auto at = std::lower_bound(
      free_ranges_.begin(), free_ranges_.end(), first,
      [](const auto& range, std::uint64_t lpn) { return range.first < lpn; });
  at = free_ranges_.insert(at, {first, count});
  if (const auto next = std::next(at);
      next != free_ranges_.end() && at->first + at->second == next->first) {
    at->second += next->second;
    free_ranges_.erase(next);
  }
  if (at != free_ranges_.begin()) {
    const auto prev = std::prev(at);
    if (prev->first + prev->second == at->first) {
      prev->second += at->second;
      at = std::prev(free_ranges_.erase(at));
    }
  }
  // The top range goes back to the bump allocator.
  if (at->first + at->second == next_lpn_) {
    next_lpn_ = at->first;
    free_ranges_.erase(at);
  }
}

void KvEngine::index_run(const SstableMeta& run) {
  index_.reserve(index_.size() + run.index.size());
  for (const IndexEntry& entry : run.index) {
    index_.upsert(entry.key, {run.first_lpn + entry.page, entry.offset,
                              entry.tombstone});
  }
}

Status KvEngine::flush() {
  if (memtable_.empty()) return Status::ok();

  SstableBuilder builder(ftl_.page_size());
  std::size_t entries = 0;
  for (auto it = memtable_.begin(); it.valid(); it.next()) {
    builder.add(it.entry());
    ++entries;
  }
  clock_.advance(config_.cpu_flush_per_entry_ns * entries);

  auto lpns = allocate_lpns(builder.pages_needed());
  BX_RETURN_IF_ERROR(lpns.status());
  // Background: the flush occupies NAND dies without stalling the host-
  // visible command (the memtable remains authoritative until swapped).
  auto meta = builder.finish(ftl_, *lpns, next_run_id_++,
                             nand::NandFlash::Blocking::kBackground);
  if (!meta.is_ok()) {
    release_lpns(lpns->front(), lpns->size());
    return meta.status();
  }
  runs_.push_back(std::move(meta).value());
  index_run(runs_.back());
  memtable_.clear();
  ++flushes_;

  // The flush itself is done. A compaction that fails leaves the runs as
  // they were; the next flush retries it.
  if (runs_.size() > config_.max_runs && !compact().is_ok()) {
    ++compaction_failures_;
  }
  return Status::ok();
}

Status KvEngine::compact() {
  if (runs_.size() < 2) return Status::ok();

  // Full merge of all runs, newest version wins, tombstones dropped (there
  // is nothing older for them to shadow after a full merge).
  std::map<std::string, KvEntry, std::less<>> merged;
  std::size_t scanned = 0;
  for (const SstableMeta& run : runs_) {  // oldest..newest: later overwrite
    auto all = sstable_read_all(ftl_, run);
    BX_RETURN_IF_ERROR(all.status());
    scanned += all->size();
    for (auto& entry : *all) merged[entry.key] = std::move(entry);
  }
  clock_.advance(config_.cpu_compact_per_entry_ns * scanned);

  SstableBuilder builder(ftl_.page_size());
  for (auto& [key, entry] : merged) {
    if (!entry.tombstone) builder.add(entry);
  }

  // The output is written before any input run is retired, so a failure
  // here leaves every acknowledged key where the index says it is.
  std::optional<SstableMeta> output;
  if (builder.entry_count() > 0) {
    auto lpns = allocate_lpns(builder.pages_needed());
    BX_RETURN_IF_ERROR(lpns.status());  // kResourceExhausted
    auto meta = builder.finish(ftl_, *lpns, next_run_id_++,
                               nand::NandFlash::Blocking::kBackground);
    if (!meta.is_ok()) {
      release_lpns(lpns->front(), lpns->size());
      return meta.status();
    }
    output = std::move(meta).value();
  }

  const std::deque<SstableMeta> retired = std::exchange(runs_, {});
  index_.clear();
  if (output.has_value()) {
    runs_.push_back(std::move(*output));
    index_run(runs_.front());
  }
  for (const SstableMeta& run : retired) {
    release_lpns(run.first_lpn, run.page_count);
  }
  ++compactions_;
  return Status::ok();
}

}  // namespace bx::kv
