// KV engine: LSM semantics end to end on the device side — put/get/delete
// through memtable, flush to NAND runs, multi-run shadowing, compaction,
// scans, capacity/validation errors, space reclamation under churn, the
// point index, and a differential check of it and its NAND cost.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kv/kv_engine.h"
#include "workload/mixgraph.h"

namespace bx::kv {
namespace {

nand::Geometry small_geometry() {
  nand::Geometry g;
  g.channels = 2;
  g.ways = 2;
  g.blocks_per_die = 32;
  g.pages_per_block = 32;
  g.page_size = 4096;
  return g;
}

class KvEngineFixture : public ::testing::Test {
 protected:
  KvEngineFixture()
      : nand_(small_geometry(), nand::NandTiming{}, clock_),
        ftl_(nand_, {.overprovision = 0.125, .gc_threshold_blocks = 2}) {}

  KvEngine make_engine(std::size_t flush_threshold = 16 * 1024,
                       std::size_t max_runs = 4) {
    KvEngine::Config config;
    config.lpn_base = 0;
    config.lpn_count = ftl_.logical_pages();
    config.flush_threshold_bytes = flush_threshold;
    config.max_runs = max_runs;
    return {ftl_, clock_, config};
  }

  ByteVec value(std::size_t size, std::uint64_t seed) {
    ByteVec v(size);
    fill_pattern(v, seed);
    return v;
  }

  SimClock clock_;
  nand::NandFlash nand_;
  nand::Ftl ftl_;
};

TEST_F(KvEngineFixture, PutGetFromMemtable) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put("alpha", value(100, 1)).is_ok());
  auto got = engine.get("alpha");
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(verify_pattern(*got, 1));
  EXPECT_EQ(engine.puts(), 1u);
  EXPECT_EQ(engine.gets(), 1u);
}

TEST_F(KvEngineFixture, GetMissingIsNotFound) {
  KvEngine engine = make_engine();
  EXPECT_EQ(engine.get("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(KvEngineFixture, GetAfterFlushReadsNand) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put("k1", value(200, 7)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(engine.run_count(), 1u);
  EXPECT_EQ(engine.memtable_bytes(), 0u);
  const std::uint64_t reads_before = nand_.reads();
  auto got = engine.get("k1");
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(verify_pattern(*got, 7));
  EXPECT_GT(nand_.reads(), reads_before);  // really came from NAND
}

TEST_F(KvEngineFixture, NewerRunShadowsOlder) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put("k", value(50, 1)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  ASSERT_TRUE(engine.put("k", value(50, 2)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(engine.run_count(), 2u);
  auto got = engine.get("k");
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(verify_pattern(*got, 2));
}

TEST_F(KvEngineFixture, MemtableShadowsRuns) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put("k", value(50, 1)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  ASSERT_TRUE(engine.put("k", value(50, 3)).is_ok());
  auto got = engine.get("k");
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(verify_pattern(*got, 3));
}

TEST_F(KvEngineFixture, DeleteTombstoneShadowsFlushedValue) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put("gone", value(50, 1)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  auto deleted = engine.del("gone");
  ASSERT_TRUE(deleted.is_ok());
  EXPECT_TRUE(*deleted);
  EXPECT_EQ(engine.get("gone").status().code(), StatusCode::kNotFound);
  // The tombstone must survive its own flush too.
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(engine.get("gone").status().code(), StatusCode::kNotFound);
}

TEST_F(KvEngineFixture, DeleteReturnsWhetherKeyExisted) {
  KvEngine engine = make_engine();
  auto missing = engine.del("never");
  ASSERT_TRUE(missing.is_ok());
  EXPECT_FALSE(*missing);
  ASSERT_TRUE(engine.put("there", value(10, 1)).is_ok());
  auto there = engine.del("there");
  ASSERT_TRUE(there.is_ok());
  EXPECT_TRUE(*there);
}

TEST_F(KvEngineFixture, ExistChecksAllLevels) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put("flushed", value(10, 1)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  ASSERT_TRUE(engine.put("fresh", value(10, 2)).is_ok());
  EXPECT_TRUE(*engine.exist("flushed"));
  EXPECT_TRUE(*engine.exist("fresh"));
  EXPECT_FALSE(*engine.exist("absent"));
  ASSERT_TRUE(engine.del("flushed").is_ok());
  EXPECT_FALSE(*engine.exist("flushed"));
}

TEST_F(KvEngineFixture, AutomaticFlushOnThreshold) {
  KvEngine engine = make_engine(/*flush_threshold=*/4096);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        engine.put(workload::make_key(i), value(256, i)).is_ok());
  }
  EXPECT_GT(engine.flushes(), 0u);
}

TEST_F(KvEngineFixture, CompactionMergesRunsAndDropsTombstones) {
  KvEngine engine = make_engine(/*flush_threshold=*/1 << 20, /*max_runs=*/2);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(engine
                      .put(workload::make_key(i),
                           value(100, std::uint64_t(round) * 100 + i))
                      .is_ok());
    }
    ASSERT_TRUE(engine.del(workload::make_key(round)).is_ok());
    ASSERT_TRUE(engine.flush().is_ok());
  }
  EXPECT_GT(engine.compactions(), 0u);
  EXPECT_LE(engine.run_count(), 2u);
  // Keys 0..2 were re-put by round 3 after their earlier deletions; only
  // key 3's tombstone (from the final round) is still in force. Everything
  // live must return round 3's values.
  EXPECT_EQ(engine.get(workload::make_key(3)).status().code(),
            StatusCode::kNotFound);
  for (int i = 0; i < 10; ++i) {
    if (i == 3) continue;
    auto got = engine.get(workload::make_key(i));
    ASSERT_TRUE(got.is_ok()) << i;
    EXPECT_TRUE(verify_pattern(*got, 300 + std::uint64_t(i))) << i;
  }
}

TEST_F(KvEngineFixture, ScanMergesLevelsInKeyOrder) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put(workload::make_key(1), value(10, 1)).is_ok());
  ASSERT_TRUE(engine.put(workload::make_key(3), value(10, 3)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  ASSERT_TRUE(engine.put(workload::make_key(2), value(10, 2)).is_ok());
  ASSERT_TRUE(engine.put(workload::make_key(3), value(10, 33)).is_ok());

  auto entries = engine.scan(workload::make_key(1), 10);
  ASSERT_TRUE(entries.is_ok());
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].key, workload::make_key(1));
  EXPECT_EQ((*entries)[1].key, workload::make_key(2));
  EXPECT_EQ((*entries)[2].key, workload::make_key(3));
  EXPECT_TRUE(verify_pattern((*entries)[2].value, 33));  // newest version
}

TEST_F(KvEngineFixture, ScanRespectsStartAndLimit) {
  KvEngine engine = make_engine();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.put(workload::make_key(i), value(8, i)).is_ok());
  }
  auto entries = engine.scan(workload::make_key(5), 4);
  ASSERT_TRUE(entries.is_ok());
  ASSERT_EQ(entries->size(), 4u);
  EXPECT_EQ(entries->front().key, workload::make_key(5));
  EXPECT_EQ(entries->back().key, workload::make_key(8));
}

TEST_F(KvEngineFixture, ScanSkipsDeleted) {
  KvEngine engine = make_engine();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.put(workload::make_key(i), value(8, i)).is_ok());
  }
  ASSERT_TRUE(engine.del(workload::make_key(2)).is_ok());
  auto entries = engine.scan(workload::make_key(0), 10);
  ASSERT_TRUE(entries.is_ok());
  EXPECT_EQ(entries->size(), 4u);
  for (const auto& entry : *entries) {
    EXPECT_NE(entry.key, workload::make_key(2));
  }
}

TEST_F(KvEngineFixture, IteratorWalksEntireStoreInBatches) {
  KvEngine engine = make_engine();
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(engine.put(workload::make_key(i), value(20, i)).is_ok());
  }
  ASSERT_TRUE(engine.flush().is_ok());
  for (int i = 25; i < 30; ++i) {  // some entries only in the memtable
    ASSERT_TRUE(engine.put(workload::make_key(i), value(20, i)).is_ok());
  }

  auto id = engine.iter_open(workload::make_key(0));
  ASSERT_TRUE(id.is_ok());
  int seen = 0;
  for (;;) {
    auto batch = engine.iter_next(*id, 7);
    ASSERT_TRUE(batch.is_ok());
    if (batch->empty()) break;
    for (const KvEntry& entry : *batch) {
      EXPECT_EQ(entry.key, workload::make_key(seen));
      EXPECT_TRUE(verify_pattern(entry.value, seen));
      ++seen;
    }
  }
  EXPECT_EQ(seen, 30);
  // Exhausted iterators keep returning empty until closed.
  auto again = engine.iter_next(*id, 7);
  ASSERT_TRUE(again.is_ok());
  EXPECT_TRUE(again->empty());
  ASSERT_TRUE(engine.iter_close(*id).is_ok());
  EXPECT_EQ(engine.open_iterators(), 0u);
}

TEST_F(KvEngineFixture, IteratorSeesWritesBetweenBatches) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put(workload::make_key(0), value(8, 0)).is_ok());
  ASSERT_TRUE(engine.put(workload::make_key(5), value(8, 5)).is_ok());
  auto id = engine.iter_open(workload::make_key(0));
  ASSERT_TRUE(id.is_ok());
  auto first = engine.iter_next(*id, 1);
  ASSERT_TRUE(first.is_ok());
  ASSERT_EQ(first->size(), 1u);
  EXPECT_EQ(first->front().key, workload::make_key(0));
  // A key inserted behind the cursor is skipped; one ahead is seen.
  ASSERT_TRUE(engine.put(workload::make_key(3), value(8, 3)).is_ok());
  auto rest = engine.iter_next(*id, 10);
  ASSERT_TRUE(rest.is_ok());
  ASSERT_EQ(rest->size(), 2u);
  EXPECT_EQ((*rest)[0].key, workload::make_key(3));
  EXPECT_EQ((*rest)[1].key, workload::make_key(5));
}

TEST_F(KvEngineFixture, IteratorErrorsAndLimits) {
  KvEngine::Config config;
  config.lpn_base = 0;
  config.lpn_count = ftl_.logical_pages();
  config.max_open_iterators = 2;
  KvEngine engine(ftl_, clock_, config);

  EXPECT_EQ(engine.iter_next(99, 5).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.iter_close(99).code(), StatusCode::kNotFound);

  auto a = engine.iter_open("a");
  auto b = engine.iter_open("b");
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(engine.iter_open("c").status().code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(engine.iter_close(*a).is_ok());
  EXPECT_TRUE(engine.iter_open("c").is_ok());
}

TEST_F(KvEngineFixture, ValidationErrors) {
  KvEngine engine = make_engine();
  EXPECT_EQ(engine.put("", value(8, 1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.put("this-key-is-way-too-long!", value(8, 1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.put("ok", value(8000, 1)).code(),
            StatusCode::kInvalidArgument);  // value above record cap
}

TEST_F(KvEngineFixture, DeviceCpuCostsAdvanceClock) {
  KvEngine engine = make_engine();
  const Nanoseconds before = clock_.now();
  ASSERT_TRUE(engine.put("k", value(10, 1)).is_ok());
  EXPECT_GE(clock_.now() - before, engine.config().cpu_put_ns);
}

TEST_F(KvEngineFixture, RandomizedAgainstStdMapAcrossFlushes) {
  KvEngine engine = make_engine(/*flush_threshold=*/8 * 1024, /*max_runs=*/3);
  std::map<std::string, std::uint64_t> truth;
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const std::string key = workload::make_key(rng.next_below(150));
    if (rng.next_bool(0.85)) {
      const std::uint64_t seed = rng.next();
      const std::size_t size = 1 + rng.next_below(500);
      ASSERT_TRUE(engine.put(key, value(size, seed)).is_ok()) << i;
      truth[key] = seed;
    } else {
      ASSERT_TRUE(engine.del(key).is_ok()) << i;
      truth.erase(key);
    }
  }
  for (std::uint64_t id = 0; id < 150; ++id) {
    const std::string key = workload::make_key(id);
    const auto it = truth.find(key);
    auto got = engine.get(key);
    if (it == truth.end()) {
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << key;
    } else {
      ASSERT_TRUE(got.is_ok()) << key;
      EXPECT_TRUE(verify_pattern(*got, it->second)) << key;
    }
  }
}

// The point index on its own: keys of every length up to 16 bytes grow the
// table through several rehashes, overwrites keep one slot per key, and
// clear() forgets every key while the table stays usable.
TEST(PointIndexTest, GrowsOverwritesAndClears) {
  PointIndex index;
  auto key_of = [](std::uint64_t i) {
    std::string key = workload::make_key(i);
    return key.substr(0, 1 + i % PointIndex::kMaxKeyBytes);  // 1..16 B
  };
  std::map<std::string, std::uint64_t> truth;
  for (std::uint64_t i = 0; i < 5'000; ++i) {
    index.upsert(key_of(i), {i, static_cast<std::uint16_t>(i), i % 7 == 0});
    truth[key_of(i)] = i;
  }
  for (std::uint64_t i = 0; i < 5'000; i += 2) {  // overwrite half
    index.upsert(key_of(i), {i + 100'000, 0, false});
    truth[key_of(i)] = i + 100'000;
  }
  EXPECT_EQ(index.size(), truth.size());
  for (const auto& [key, lpn] : truth) {
    const auto found = index.find(key);
    ASSERT_TRUE(found.has_value()) << key;
    EXPECT_EQ(found->lpn, lpn) << key;
  }
  EXPECT_FALSE(index.find("absent-key").has_value());
  EXPECT_FALSE(index.find("").has_value());

  index.clear();
  EXPECT_EQ(index.size(), 0u);
  for (const auto& [key, lpn] : truth) EXPECT_FALSE(index.find(key));
  index.upsert("k", {9, 4, true});
  const auto found = index.find("k");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->lpn, 9u);
  EXPECT_EQ(found->offset, 4u);
  EXPECT_TRUE(found->tombstone);
}

// A sentinel set written once, then a hot set overwritten with varying
// value sizes on a small LPN range until compaction has run many times.
// The live set is well under capacity, so every PUT must succeed and
// every acknowledged key must read back its last value: a compaction may
// not retire its inputs before its output is written, and freed ranges
// must coalesce so the allocator does not fail while space remains.
TEST_F(KvEngineFixture, CompactionUnderChurnKeepsAcknowledgedData) {
  KvEngine::Config config;
  config.lpn_base = 0;
  config.lpn_count = 24;
  config.flush_threshold_bytes = 4 * 1024;
  config.max_runs = 2;
  KvEngine engine(ftl_, clock_, config);

  std::map<std::string, std::uint64_t> acked;  // key -> value seed
  std::map<std::string, std::size_t> sizes;
  Rng rng(7);
  auto put = [&](const std::string& key) {
    const std::uint64_t seed = rng.next();
    const std::size_t size = 1 + rng.next_below(1000);
    const Status status = engine.put(key, value(size, seed));
    ASSERT_TRUE(status.is_ok())
        << key << " after " << engine.compactions()
        << " compactions: " << status.to_string();
    acked[key] = seed;
    sizes[key] = size;
  };

  for (int i = 0; i < 30; ++i) {
    ASSERT_NO_FATAL_FAILURE(put("sentinel" + std::to_string(i)));
  }
  for (int op = 0; op < 20'000 && engine.compactions() < 40; ++op) {
    ASSERT_NO_FATAL_FAILURE(put(workload::make_key(rng.next_below(12))));
  }
  EXPECT_GE(engine.compactions(), 40u);

  for (const auto& [key, seed] : acked) {
    auto got = engine.get(key);
    ASSERT_TRUE(got.is_ok()) << key << ": " << got.status().to_string();
    EXPECT_EQ(got->size(), sizes[key]) << key;
    EXPECT_TRUE(verify_pattern(*got, seed)) << key;
  }
}

// A live set too large for the LPN range: PUTs eventually fail, typed as
// kResourceExhausted, and the failure (in a flush or in the compaction
// behind it) leaves every earlier acknowledged key readable.
TEST_F(KvEngineFixture, ExhaustedSpaceFailsTypedAndKeepsData) {
  KvEngine::Config config;
  config.lpn_base = 0;
  config.lpn_count = 12;
  config.flush_threshold_bytes = 4 * 1024;
  config.max_runs = 2;
  KvEngine engine(ftl_, clock_, config);

  std::map<std::string, std::uint64_t> acked;
  Status failed = Status::ok();
  for (std::uint64_t i = 0; i < 500 && failed.is_ok(); ++i) {
    const std::string key = workload::make_key(i);
    failed = engine.put(key, value(900, i));
    if (failed.is_ok()) acked[key] = i;
  }
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted)
      << failed.to_string();
  for (const auto& [key, seed] : acked) {
    auto got = engine.get(key);
    ASSERT_TRUE(got.is_ok()) << key << ": " << got.status().to_string();
    EXPECT_TRUE(verify_pattern(*got, seed)) << key;
  }
}

// A PUT's status says whether it was applied: every PUT that returns OK
// reads back and every PUT that fails does not. As the range fills,
// compactions fail first (counted and retried, never reported by the PUT
// whose flush went through), then flushes fail; from then on a PUT fails
// before it touches the memtable, which stays below its threshold plus
// one record.
TEST_F(KvEngineFixture, PutStatusMatchesWhetherItWasApplied) {
  KvEngine::Config config;
  config.lpn_base = 0;
  config.lpn_count = 12;
  config.flush_threshold_bytes = 4 * 1024;
  config.max_runs = 2;
  KvEngine engine(ftl_, clock_, config);

  std::map<std::string, std::uint64_t> acked;
  std::vector<std::string> refused;
  std::size_t record_bytes = 0;
  for (std::uint64_t i = 0; i < 120; ++i) {
    const std::string key = workload::make_key(i);
    const Status put = engine.put(key, value(900, i));
    if (i == 0) record_bytes = engine.memtable_bytes();
    if (put.is_ok()) {
      acked[key] = i;
    } else {
      EXPECT_EQ(put.code(), StatusCode::kResourceExhausted)
          << put.to_string();
      refused.push_back(key);
    }
    EXPECT_LT(engine.memtable_bytes(),
              config.flush_threshold_bytes + record_bytes)
        << "PUT " << i;
  }
  EXPECT_GT(engine.compaction_failures(), 0u);
  ASSERT_FALSE(refused.empty());
  for (const auto& [key, seed] : acked) {
    auto got = engine.get(key);
    ASSERT_TRUE(got.is_ok()) << key << ": " << got.status().to_string();
    EXPECT_TRUE(verify_pattern(*got, seed)) << key;
  }
  for (const std::string& key : refused) {
    EXPECT_EQ(engine.get(key).status().code(), StatusCode::kNotFound)
        << "refused PUT of " << key << " is readable";
  }
}

// Differential check of the point index: get/exist/scan interleaved with
// put/del/flush (and the compactions flushes trigger) against a std::map
// shadow, with tombstones flushed into runs and overwrites across runs.
// Each GET and EXIST also pins its NAND cost: one page read when the key's
// newest state is in a run (a tombstone too), none for a memtable hit or
// a key no run holds.
TEST_F(KvEngineFixture, PointIndexMatchesShadowAndReadsOnePage) {
  KvEngine engine = make_engine(/*flush_threshold=*/1 << 20, /*max_runs=*/2);
  constexpr std::uint64_t kKeys = 120;
  // key -> value seed and size; nullopt once deleted.
  std::map<std::string, std::optional<std::pair<std::uint64_t, std::size_t>>>
      shadow;
  std::set<std::string> in_memtable;  // written since the last flush
  std::set<std::string> in_runs;      // newest state is a run record
  std::uint64_t run_hits = 0;
  std::uint64_t run_tombstone_hits = 0;
  Rng rng(2024);

  auto expected_reads = [&](const std::string& key) -> std::uint64_t {
    if (in_memtable.count(key) != 0) return 0;
    return in_runs.count(key);
  };
  auto live = [&](const std::string& key) {
    const auto it = shadow.find(key);
    return it != shadow.end() && it->second.has_value();
  };

  for (int op = 0; op < 4'000; ++op) {
    const std::string key = workload::make_key(rng.next_below(kKeys));
    const std::uint64_t pick = rng.next_below(100);
    if (pick < 35) {
      const std::uint64_t seed = rng.next();
      const std::size_t size = 1 + rng.next_below(300);
      ASSERT_TRUE(engine.put(key, value(size, seed)).is_ok()) << op;
      shadow[key] = std::make_pair(seed, size);
      in_memtable.insert(key);
    } else if (pick < 45) {
      const bool was_live = live(key);
      const std::uint64_t reads_before = nand_.reads();
      auto existed = engine.del(key);
      ASSERT_TRUE(existed.is_ok()) << op;
      EXPECT_EQ(*existed, was_live) << op << " " << key;
      EXPECT_EQ(nand_.reads() - reads_before, expected_reads(key)) << op;
      shadow[key] = std::nullopt;
      in_memtable.insert(key);
    } else if (pick < 75) {
      const std::uint64_t expect = expected_reads(key);
      const std::uint64_t reads_before = nand_.reads();
      auto got = engine.get(key);
      EXPECT_EQ(nand_.reads() - reads_before, expect) << op << " " << key;
      if (live(key)) {
        ASSERT_TRUE(got.is_ok()) << op << " " << key;
        EXPECT_EQ(got->size(), shadow[key]->second) << op;
        EXPECT_TRUE(verify_pattern(*got, shadow[key]->first)) << op;
      } else {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << op << key;
      }
      run_hits += expect;
      if (expect == 1 && !live(key)) ++run_tombstone_hits;
    } else if (pick < 85) {
      const std::uint64_t reads_before = nand_.reads();
      auto exists = engine.exist(key);
      ASSERT_TRUE(exists.is_ok()) << op;
      EXPECT_EQ(*exists, live(key)) << op << " " << key;
      EXPECT_EQ(nand_.reads() - reads_before, expected_reads(key)) << op;
    } else if (pick < 92) {
      const std::size_t limit = 1 + rng.next_below(20);
      auto entries = engine.scan(key, limit);
      ASSERT_TRUE(entries.is_ok()) << op;
      auto want = shadow.lower_bound(key);
      for (const KvEntry& entry : *entries) {
        while (want != shadow.end() && !want->second.has_value()) ++want;
        ASSERT_NE(want, shadow.end()) << op;
        EXPECT_EQ(entry.key, want->first) << op;
        EXPECT_TRUE(verify_pattern(entry.value, want->second->first)) << op;
        ++want;
      }
      if (entries->size() < limit) {
        while (want != shadow.end() && !want->second.has_value()) ++want;
        EXPECT_EQ(want, shadow.end()) << op << ": scan stopped early";
      }
    } else {
      const std::uint64_t compactions = engine.compactions();
      ASSERT_TRUE(engine.flush().is_ok()) << op;
      in_runs.insert(in_memtable.begin(), in_memtable.end());
      in_memtable.clear();
      if (engine.compactions() != compactions) {
        // A full merge keeps only live keys.
        in_runs.clear();
        for (const auto& [k, state] : shadow) {
          if (state.has_value()) in_runs.insert(k);
        }
      }
    }
  }
  EXPECT_GT(engine.compactions(), 10u);
  EXPECT_GT(run_hits, 100u);
  EXPECT_GT(run_tombstone_hits, 5u);
}

}  // namespace
}  // namespace bx::kv
