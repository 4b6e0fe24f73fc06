// Skiplist memtable: ordering, overwrite, tombstones, iteration, seek.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "kv/memtable.h"
#include "workload/mixgraph.h"

namespace bx::kv {
namespace {

ByteVec value_of(std::string_view text) {
  return {text.begin(), text.end()};
}

TEST(MemTableTest, EmptyTable) {
  MemTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.count(), 0u);
  EXPECT_EQ(table.get("missing"), nullptr);
  EXPECT_FALSE(table.begin().valid());
}

TEST(MemTableTest, PutGet) {
  MemTable table;
  EXPECT_TRUE(table.put("alpha", value_of("1"), 1));
  EXPECT_TRUE(table.put("beta", value_of("2"), 2));
  const KvEntry* hit = table.get("alpha");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(to_string(hit->value), "1");
  EXPECT_EQ(hit->seq, 1u);
  EXPECT_FALSE(hit->tombstone);
  EXPECT_EQ(table.count(), 2u);
}

TEST(MemTableTest, OverwriteKeepsSingleNode) {
  MemTable table;
  EXPECT_TRUE(table.put("k", value_of("old"), 1));
  EXPECT_FALSE(table.put("k", value_of("new-and-longer"), 2));
  EXPECT_EQ(table.count(), 1u);
  const KvEntry* hit = table.get("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(to_string(hit->value), "new-and-longer");
  EXPECT_EQ(hit->seq, 2u);
}

TEST(MemTableTest, TombstoneShadows) {
  MemTable table;
  table.put("k", value_of("v"), 1);
  table.del("k", 2);
  const KvEntry* hit = table.get("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->tombstone);
  // A later put resurrects the key.
  table.put("k", value_of("again"), 3);
  EXPECT_FALSE(table.get("k")->tombstone);
}

TEST(MemTableTest, DeleteOfAbsentKeyCreatesTombstone) {
  MemTable table;
  table.del("ghost", 1);
  const KvEntry* hit = table.get("ghost");
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->tombstone);
}

TEST(MemTableTest, IterationIsSorted) {
  MemTable table;
  const char* keys[] = {"pear", "apple", "zebra", "mango", "fig"};
  for (int i = 0; i < 5; ++i) table.put(keys[i], value_of("x"), i);
  std::vector<std::string> seen;
  for (auto it = table.begin(); it.valid(); it.next()) {
    seen.push_back(it.entry().key);
  }
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(MemTableTest, SeekFindsLowerBound) {
  MemTable table;
  table.put("b", value_of("1"), 1);
  table.put("d", value_of("2"), 2);
  table.put("f", value_of("3"), 3);
  auto it = table.seek("c");
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.entry().key, "d");
  it = table.seek("d");
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.entry().key, "d");
  it = table.seek("z");
  EXPECT_FALSE(it.valid());
}

TEST(MemTableTest, ApproximateBytesGrowsAndClears) {
  MemTable table;
  const std::size_t empty = table.approximate_bytes();
  table.put("key1", ByteVec(100), 1);
  EXPECT_GT(table.approximate_bytes(), empty + 100);
  table.clear();
  EXPECT_EQ(table.count(), 0u);
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.get("key1"), nullptr);
}

TEST(MemTableTest, OverwriteAdjustsByteAccounting) {
  MemTable table;
  table.put("k", ByteVec(1000), 1);
  const std::size_t big = table.approximate_bytes();
  table.put("k", ByteVec(10), 2);
  EXPECT_LT(table.approximate_bytes(), big);
}

TEST(MemTableTest, RandomizedAgainstStdMap) {
  MemTable table;
  std::map<std::string, std::pair<std::uint64_t, bool>> truth;
  Rng rng(123);
  std::uint64_t seq = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string key = workload::make_key(rng.next_below(300));
    if (rng.next_bool(0.8)) {
      table.put(key, value_of(key), ++seq);
      truth[key] = {seq, false};
    } else {
      table.del(key, ++seq);
      truth[key] = {seq, true};
    }
  }
  for (const auto& [key, state] : truth) {
    const KvEntry* hit = table.get(key);
    ASSERT_NE(hit, nullptr) << key;
    EXPECT_EQ(hit->seq, state.first) << key;
    EXPECT_EQ(hit->tombstone, state.second) << key;
  }
  EXPECT_EQ(table.count(), truth.size());
  // Iteration order must match std::map's sorted order exactly.
  auto it = table.begin();
  for (const auto& [key, state] : truth) {
    ASSERT_TRUE(it.valid());
    EXPECT_EQ(it.entry().key, key);
    it.next();
  }
  EXPECT_FALSE(it.valid());
}

}  // namespace
}  // namespace bx::kv
