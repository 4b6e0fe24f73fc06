// SSTable build/read: record packing into pages, index lookups through the
// shared record reader, tombstone persistence, full-run scans, and
// corrupt-input handling.
#include <gtest/gtest.h>

#include <algorithm>

#include "kv/sstable.h"
#include "nand/ftl.h"

namespace bx::kv {
namespace {

nand::Geometry tiny_geometry() {
  nand::Geometry g;
  g.channels = 1;
  g.ways = 2;
  g.blocks_per_die = 16;
  g.pages_per_block = 16;
  g.page_size = 4096;
  return g;
}

class SstableFixture : public ::testing::Test {
 protected:
  SstableFixture()
      : nand_(tiny_geometry(), nand::NandTiming{}, clock_),
        ftl_(nand_, {.overprovision = 0.2, .gc_threshold_blocks = 2}) {}

  KvEntry entry(std::string key, std::size_t value_size, std::uint64_t seq,
                bool tombstone = false) {
    KvEntry e;
    e.key = std::move(key);
    e.value.resize(value_size);
    fill_pattern(e.value, seq);
    e.seq = seq;
    e.tombstone = tombstone;
    return e;
  }

  std::vector<std::uint64_t> lpns(std::uint64_t base, std::uint32_t count) {
    std::vector<std::uint64_t> out(count);
    for (std::uint32_t i = 0; i < count; ++i) out[i] = base + i;
    return out;
  }

  /// Finds `key` in the run's sorted index and reads its record through
  /// read_record, as the engine does; kNotFound without an index entry.
  StatusOr<RecordView> lookup(const SstableMeta& meta, std::string_view key) {
    const auto it = std::find_if(
        meta.index.begin(), meta.index.end(),
        [key](const IndexEntry& index) { return index.key == key; });
    if (it == meta.index.end()) return not_found("no index entry");
    return read_record(ftl_, meta.first_lpn + it->page, it->offset, key,
                       page_);
  }

  SimClock clock_;
  nand::NandFlash nand_;
  nand::Ftl ftl_;
  ByteVec page_ = ByteVec(4096);
};

TEST_F(SstableFixture, RecordSizeArithmetic) {
  EXPECT_EQ(record_size(entry("abcd", 100, 1)), 4u + 4u + 100u);
  EXPECT_EQ(record_size(entry("k", 0, 1, true)), 5u);
}

TEST_F(SstableFixture, BuildAndPointLookup) {
  SstableBuilder builder(4096);
  builder.add(entry("apple", 50, 1));
  builder.add(entry("banana", 60, 2));
  builder.add(entry("cherry", 70, 3));
  EXPECT_EQ(builder.entry_count(), 3u);
  EXPECT_EQ(builder.pages_needed(), 1u);

  auto meta = builder.finish(ftl_, lpns(0, 1), /*id=*/1,
                             nand::NandFlash::Blocking::kForeground);
  ASSERT_TRUE(meta.is_ok());

  auto found = lookup(*meta, "banana");
  ASSERT_TRUE(found.is_ok());
  EXPECT_EQ(found->key, "banana");
  EXPECT_EQ(found->value.size(), 60u);
  EXPECT_TRUE(verify_pattern(found->value, 2));
  EXPECT_FALSE(found->tombstone);
  EXPECT_EQ(meta->index[1].seq, 2u);

  EXPECT_EQ(lookup(*meta, "durian").status().code(), StatusCode::kNotFound);
}

TEST_F(SstableFixture, CoversUsesKeyRange) {
  SstableBuilder builder(4096);
  builder.add(entry("bb", 8, 1));
  builder.add(entry("dd", 8, 2));
  auto meta = builder.finish(ftl_, lpns(0, 1), 1,
                             nand::NandFlash::Blocking::kForeground);
  ASSERT_TRUE(meta.is_ok());
  // The sorted index spans bb..dd: its ends read back those records, and a
  // key inside the range that was never added has no entry.
  ASSERT_EQ(meta->index.size(), 2u);
  EXPECT_EQ(meta->index.front().key, "bb");
  EXPECT_EQ(meta->index.back().key, "dd");
  ASSERT_TRUE(lookup(*meta, "bb").is_ok());
  ASSERT_TRUE(lookup(*meta, "dd").is_ok());
  EXPECT_TRUE(verify_pattern(lookup(*meta, "dd")->value, 2));
  EXPECT_EQ(lookup(*meta, "cc").status().code(), StatusCode::kNotFound);
}

TEST_F(SstableFixture, ReadRecordRejectsAnotherKey) {
  SstableBuilder builder(4096);
  builder.add(entry("bb", 8, 1));
  builder.add(entry("dd", 8, 2));
  auto meta = builder.finish(ftl_, lpns(0, 1), 1,
                             nand::NandFlash::Blocking::kForeground);
  ASSERT_TRUE(meta.is_ok());
  // Record "dd" sits at the second index entry's offset, not "bb"'s.
  const auto read = read_record(ftl_, meta->first_lpn,
                                meta->index[1].offset, "bb", page_);
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  // Past the last record the page terminator ends the parse.
  EXPECT_FALSE(parse_record(page_, 4000).has_value());
}

TEST_F(SstableFixture, RecordsNeverSpanPages) {
  SstableBuilder builder(4096);
  // Each record ~1.4 KB: three per page would need 4.2 KB, so two fit.
  for (int i = 0; i < 6; ++i) {
    builder.add(entry("key" + std::to_string(i), 1400, i + 1));
  }
  EXPECT_EQ(builder.pages_needed(), 3u);
  auto meta = builder.finish(ftl_, lpns(0, 3), 1,
                             nand::NandFlash::Blocking::kForeground);
  ASSERT_TRUE(meta.is_ok());
  for (int i = 0; i < 6; ++i) {
    auto found = lookup(*meta, "key" + std::to_string(i));
    ASSERT_TRUE(found.is_ok()) << i;
    EXPECT_TRUE(verify_pattern(found->value, std::uint64_t(i) + 1)) << i;
  }
}

TEST_F(SstableFixture, TombstonesPersist) {
  SstableBuilder builder(4096);
  builder.add(entry("dead", 0, 5, /*tombstone=*/true));
  builder.add(entry("live", 10, 6));
  auto meta = builder.finish(ftl_, lpns(0, 1), 1,
                             nand::NandFlash::Blocking::kForeground);
  ASSERT_TRUE(meta.is_ok());
  EXPECT_TRUE(meta->index[0].tombstone);
  auto found = lookup(*meta, "dead");
  ASSERT_TRUE(found.is_ok());
  EXPECT_TRUE(found->tombstone);
  EXPECT_FALSE(lookup(*meta, "live")->tombstone);
}

TEST_F(SstableFixture, ReadAllReturnsEverythingInOrder) {
  SstableBuilder builder(4096);
  std::vector<std::string> keys;
  for (int i = 0; i < 40; ++i) {
    keys.push_back("k" + std::to_string(1000 + i));  // sorted as strings
    builder.add(entry(keys.back(), 300, i + 1));
  }
  auto meta = builder.finish(ftl_, lpns(0, builder.pages_needed()), 1,
                             nand::NandFlash::Blocking::kForeground);
  ASSERT_TRUE(meta.is_ok());
  auto all = sstable_read_all(ftl_, *meta);
  ASSERT_TRUE(all.is_ok());
  ASSERT_EQ(all->size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ((*all)[i].key, keys[i]);
    EXPECT_EQ((*all)[i].seq, i + 1);
  }
}

TEST_F(SstableFixture, FinishRejectsWrongLpnCount) {
  SstableBuilder builder(4096);
  builder.add(entry("a", 8, 1));
  auto meta = builder.finish(ftl_, lpns(0, 2), 1,
                             nand::NandFlash::Blocking::kForeground);
  EXPECT_FALSE(meta.is_ok());
}

TEST_F(SstableFixture, FinishRejectsNonContiguousLpns) {
  SstableBuilder builder(4096);
  for (int i = 0; i < 6; ++i) {
    builder.add(entry("key" + std::to_string(i), 1400, i + 1));
  }
  std::vector<std::uint64_t> scattered = {0, 2, 5};
  auto meta = builder.finish(ftl_, scattered, 1,
                             nand::NandFlash::Blocking::kForeground);
  EXPECT_FALSE(meta.is_ok());
}

TEST_F(SstableFixture, EmptyValueRecords) {
  SstableBuilder builder(4096);
  builder.add(entry("empty", 0, 1));
  auto meta = builder.finish(ftl_, lpns(0, 1), 1,
                             nand::NandFlash::Blocking::kForeground);
  ASSERT_TRUE(meta.is_ok());
  auto found = lookup(*meta, "empty");
  ASSERT_TRUE(found.is_ok());
  EXPECT_TRUE(found->value.empty());
  EXPECT_FALSE(found->tombstone);
}

}  // namespace
}  // namespace bx::kv
