// Heap allocations of the KV engine's point reads, counted by a
// replacement global operator new. Once the point index has reached its
// size, a GET that hits a run allocates exactly the returned value, a
// memtable hit the same, and a miss, a run tombstone or an EXIST nothing:
// the record is parsed in place in the engine's page buffer. This is the
// deterministic proxy for the engine's host cost per GET; it lives in its
// own binary because the counting operator new replaces the allocator for
// the whole program.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "kv/kv_engine.h"
#include "workload/mixgraph.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bx::kv {
namespace {

using workload::make_key;

constexpr std::uint64_t kRunKeys = 2'000;
constexpr std::uint64_t kDeletedKey = 7;  // a tombstone in the newest run
constexpr std::uint64_t kMemtableKey = kRunKeys + 1;
constexpr std::uint64_t kMissingKey = kRunKeys + 2;

nand::Geometry small_geometry() {
  nand::Geometry g;
  g.channels = 2;
  g.ways = 2;
  g.blocks_per_die = 32;
  g.pages_per_block = 32;
  g.page_size = 4096;
  return g;
}

// An engine whose keys are spread over several runs, with one tombstone
// flushed into the newest run and one key left in the memtable.
class KvAllocTest : public ::testing::Test {
 protected:
  KvAllocTest()
      : nand_(small_geometry(), nand::NandTiming{}, clock_),
        ftl_(nand_, {.overprovision = 0.125, .gc_threshold_blocks = 2}),
        engine_(ftl_, clock_, [this] {
          KvEngine::Config config;
          config.lpn_count = ftl_.logical_pages();
          config.flush_threshold_bytes = 64 * 1024;
          config.max_runs = 16;
          return config;
        }()) {}

  void SetUp() override {
    ByteVec value(100);
    for (std::uint64_t i = 0; i < kRunKeys; ++i) {
      fill_pattern(value, i);
      ASSERT_TRUE(engine_.put(make_key(i), value).is_ok());
    }
    ASSERT_TRUE(engine_.del(make_key(kDeletedKey)).is_ok());
    ASSERT_TRUE(engine_.flush().is_ok());
    ASSERT_GE(engine_.run_count(), 3u);
    ASSERT_EQ(engine_.compactions(), 0u);
    ASSERT_TRUE(engine_.put(make_key(kMemtableKey), value).is_ok());
  }

  /// Heap blocks allocated by `ops` calls of `op`.
  template <typename Op>
  std::uint64_t allocations(int ops, Op op) {
    const std::uint64_t before = g_allocations.load();
    for (int i = 0; i < ops; ++i) op(i);
    return g_allocations.load() - before;
  }

  SimClock clock_;
  nand::NandFlash nand_;
  nand::Ftl ftl_;
  KvEngine engine_;
};

TEST_F(KvAllocTest, RunHitGetAllocatesOnlyTheValue) {
  // The key strings are built outside the counted region.
  std::vector<std::string> keys;
  for (std::uint64_t i = kDeletedKey + 1; i < kDeletedKey + 1001; ++i) {
    keys.push_back(make_key(i));
  }
  bool all_ok = true;
  const std::uint64_t count = allocations(1000, [&](int i) {
    const auto got = engine_.get(keys[static_cast<std::size_t>(i)]);
    all_ok = all_ok && got.is_ok() && got->size() == 100;
  });
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(count, 1000u);
}

TEST_F(KvAllocTest, MemtableHitGetAllocatesOnlyTheValue) {
  const std::string key = make_key(kMemtableKey);
  bool all_ok = true;
  const std::uint64_t count = allocations(100, [&](int) {
    all_ok = all_ok && engine_.get(key).is_ok();
  });
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(count, 100u);
}

TEST_F(KvAllocTest, MissAndRunTombstoneAllocateNothing) {
  const std::string missing = make_key(kMissingKey);
  const std::string deleted = make_key(kDeletedKey);
  bool all_not_found = true;
  const std::uint64_t count = allocations(100, [&](int) {
    all_not_found = all_not_found &&
                    engine_.get(missing).status().code() ==
                        StatusCode::kNotFound &&
                    engine_.get(deleted).status().code() ==
                        StatusCode::kNotFound;
  });
  EXPECT_TRUE(all_not_found);
  EXPECT_EQ(count, 0u);
}

TEST_F(KvAllocTest, ExistAllocatesNothing) {
  const std::string keys[] = {make_key(1), make_key(kMemtableKey),
                              make_key(kMissingKey), make_key(kDeletedKey)};
  const bool expected[] = {true, true, false, false};
  bool all_match = true;
  const std::uint64_t count = allocations(100, [&](int) {
    for (int k = 0; k < 4; ++k) {
      const auto exists = engine_.exist(keys[k]);
      all_match = all_match && exists.is_ok() && *exists == expected[k];
    }
  });
  EXPECT_TRUE(all_match);
  EXPECT_EQ(count, 0u);
}

}  // namespace
}  // namespace bx::kv
