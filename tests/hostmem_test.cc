// Unit tests for simulated host DRAM: allocation, RAII release and reuse,
// free-run coalescing, cross-page access, lazy page materialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include "hostmem/dma_memory.h"

namespace bx {
namespace {

TEST(DmaMemoryTest, AllocationsArePageAlignedAndDistinct) {
  DmaMemory memory;
  DmaBuffer a = memory.allocate_pages(1);
  DmaBuffer b = memory.allocate_pages(2);
  EXPECT_TRUE(is_aligned(a.addr(), kHostPageSize));
  EXPECT_TRUE(is_aligned(b.addr(), kHostPageSize));
  EXPECT_NE(a.addr(), 0u);  // address 0 stays invalid (null PRP detection)
  EXPECT_TRUE(a.addr() + a.size() <= b.addr() ||
              b.addr() + b.size() <= a.addr());
  EXPECT_EQ(a.size(), kHostPageSize);
  EXPECT_EQ(b.size(), 2 * kHostPageSize);
}

TEST(DmaMemoryTest, AllocateBytesRoundsUp) {
  DmaMemory memory;
  EXPECT_EQ(memory.allocate(1).size(), kHostPageSize);
  EXPECT_EQ(memory.allocate(4096).size(), kHostPageSize);
  EXPECT_EQ(memory.allocate(4097).size(), 2 * kHostPageSize);
  EXPECT_EQ(memory.allocate(0).size(), kHostPageSize);
}

TEST(DmaMemoryTest, WriteReadRoundTrip) {
  DmaMemory memory;
  DmaBuffer buffer = memory.allocate_pages(2);
  ByteVec data(5000);
  fill_pattern(data, 1);
  buffer.write(100, data);
  ByteVec read(5000);
  buffer.read(100, read);
  EXPECT_EQ(read, data);
}

TEST(DmaMemoryTest, CrossPageRawAccess) {
  DmaMemory memory;
  DmaBuffer buffer = memory.allocate_pages(3);
  // Write a span that straddles two page boundaries.
  ByteVec data(2 * kHostPageSize);
  fill_pattern(data, 2);
  memory.write(buffer.addr() + kHostPageSize / 2, data);
  ByteVec read(2 * kHostPageSize);
  memory.read(buffer.addr() + kHostPageSize / 2, read);
  EXPECT_EQ(read, data);
}

TEST(DmaMemoryTest, UnwrittenMemoryReadsZero) {
  DmaMemory memory;
  DmaBuffer buffer = memory.allocate_pages(1);
  ByteVec read(64, 0xff);
  buffer.read(0, read);
  for (const Byte b : read) EXPECT_EQ(b, 0);
}

TEST(DmaMemoryTest, TypedObjectRoundTrip) {
  DmaMemory memory;
  DmaBuffer buffer = memory.allocate_pages(1);
  struct Record {
    std::uint32_t a;
    std::uint64_t b;
  };
  memory.write_object(buffer.addr() + 8, Record{7, 9});
  const auto record = memory.read_object<Record>(buffer.addr() + 8);
  EXPECT_EQ(record.a, 7u);
  EXPECT_EQ(record.b, 9u);
}

TEST(DmaMemoryTest, FreedPagesAreReused) {
  DmaMemory memory;
  std::uint64_t addr;
  {
    DmaBuffer buffer = memory.allocate_pages(4);
    addr = buffer.addr();
    EXPECT_EQ(memory.allocated_pages(), 4u);
  }
  EXPECT_EQ(memory.allocated_pages(), 0u);
  DmaBuffer again = memory.allocate_pages(4);
  EXPECT_EQ(again.addr(), addr);
}

TEST(DmaMemoryTest, MoveTransfersOwnership) {
  DmaMemory memory;
  DmaBuffer a = memory.allocate_pages(1);
  const std::uint64_t addr = a.addr();
  DmaBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.addr(), addr);
  EXPECT_EQ(memory.allocated_pages(), 1u);
}

TEST(DmaMemoryTest, MoveAssignReleasesPrevious) {
  DmaMemory memory;
  DmaBuffer a = memory.allocate_pages(1);
  DmaBuffer b = memory.allocate_pages(1);
  EXPECT_EQ(memory.allocated_pages(), 2u);
  a = std::move(b);
  EXPECT_EQ(memory.allocated_pages(), 1u);
}

TEST(DmaMemoryTest, LazyMaterialization) {
  DmaMemory memory;
  DmaBuffer big = memory.allocate_pages(1024);  // 4 MiB address space
  EXPECT_EQ(memory.resident_pages(), 0u);       // nothing touched yet
  ByteVec byte(1, 0xaa);
  big.write(0, byte);
  big.write(big.size() - 1, byte);
  EXPECT_EQ(memory.resident_pages(), 2u);  // only the touched pages exist
}

TEST(DmaMemoryTest, FreedRunsCoalesceBackToOneSpan) {
  DmaMemory memory;
  std::mt19937_64 rng(7);
  std::vector<DmaBuffer> live;
  std::uint64_t low = ~std::uint64_t{0};
  std::uint64_t high = 0;
  for (int step = 0; step < 2000; ++step) {
    if (!live.empty() && rng() % 3 == 0) {
      // Free a random live buffer (out of allocation order).
      std::swap(live[rng() % live.size()], live.back());
      live.pop_back();
      continue;
    }
    DmaBuffer buffer = memory.allocate_pages(1 + rng() % 5);
    low = std::min(low, buffer.addr());
    high = std::max(high, buffer.addr() + buffer.size());
    live.push_back(std::move(buffer));
  }
  std::shuffle(live.begin(), live.end(), rng);
  live.clear();
  EXPECT_EQ(memory.allocated_pages(), 0u);
  EXPECT_EQ(memory.free_runs(), 1u);

  // The one run is the whole span, so allocating all of it reuses the
  // first page instead of growing the address space.
  const DmaBuffer whole = memory.allocate_pages((high - low) / kHostPageSize);
  EXPECT_EQ(whole.addr(), low);
  EXPECT_EQ(memory.free_runs(), 0u);
}

TEST(DmaMemoryTest, SparseFarAddressesMaterializeOnlyTouchedPages) {
  DmaMemory memory;
  const std::uint64_t far = std::uint64_t{1} << 44;  // far above the heap
  ByteVec data(100);
  fill_pattern(data, 5);
  memory.write(far - 50, data);  // straddles two far pages
  memory.write(3 * kHostPageSize, data);
  ByteVec back(100);
  memory.read(far - 50, back);
  EXPECT_EQ(back, data);
  EXPECT_EQ(memory.resident_pages(), 3u);
}

TEST(DmaMemoryTest, ConcurrentAllocateFree) {
  DmaMemory memory;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&memory] {
      for (int i = 0; i < 200; ++i) {
        DmaBuffer buffer = memory.allocate_pages(1 + i % 3);
        ByteVec data(64);
        fill_pattern(data, i);
        buffer.write(0, data);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(memory.allocated_pages(), 0u);
}

}  // namespace
}  // namespace bx
