// Simulated host DRAM.
//
// Everything the device can DMA — SQ/CQ rings, PRP data pages, PRP list
// pages, SGL segments — lives in one DmaMemory instance addressed by 64-bit
// "host physical" addresses. Pages are materialized lazily on first touch so
// a sparse multi-gigabyte address space costs only what is used. A page is
// found through a two-level table (a flat directory of leaves for the low
// addresses the allocator hands out, a hash map of leaves above them), and
// freed runs are coalesced so the allocator keeps reusing the lowest pages.
//
// DmaBuffer is the RAII handle for page-aligned allocations; it returns its
// pages to the free list on destruction, mirroring the kernel DMA pool the
// real driver draws PRP pages from.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace bx {

inline constexpr std::uint64_t kHostPageSize = 4096;

class DmaMemory;

/// RAII page-aligned host-memory allocation.
class DmaBuffer {
 public:
  DmaBuffer() noexcept = default;
  DmaBuffer(DmaMemory* memory, std::uint64_t addr,
            std::uint64_t size) noexcept
      : memory_(memory), addr_(addr), size_(size) {}
  DmaBuffer(DmaBuffer&& other) noexcept { *this = std::move(other); }
  DmaBuffer& operator=(DmaBuffer&& other) noexcept;
  DmaBuffer(const DmaBuffer&) = delete;
  DmaBuffer& operator=(const DmaBuffer&) = delete;
  ~DmaBuffer();

  [[nodiscard]] std::uint64_t addr() const noexcept { return addr_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] bool valid() const noexcept { return memory_ != nullptr; }

  /// Copies `data` into the buffer at `offset`.
  void write(std::uint64_t offset, ConstByteSpan data) noexcept;
  /// Copies bytes out of the buffer.
  void read(std::uint64_t offset, ByteSpan out) const noexcept;

 private:
  DmaMemory* memory_ = nullptr;
  std::uint64_t addr_ = 0;
  std::uint64_t size_ = 0;
};

class DmaMemory {
 public:
  DmaMemory() = default;
  DmaMemory(const DmaMemory&) = delete;
  DmaMemory& operator=(const DmaMemory&) = delete;

  /// Allocates `pages` contiguous 4 KB pages; returns the RAII handle.
  [[nodiscard]] DmaBuffer allocate_pages(std::uint64_t pages);

  /// Allocates the smallest page-aligned buffer holding `bytes`.
  [[nodiscard]] DmaBuffer allocate(std::uint64_t bytes) {
    return allocate_pages(div_ceil(bytes == 0 ? 1 : bytes, kHostPageSize));
  }

  /// Raw physical access, any alignment, may cross page boundaries.
  void write(std::uint64_t addr, ConstByteSpan data) noexcept;
  void read(std::uint64_t addr, ByteSpan out) noexcept;

  /// Typed helpers for ring entries and registers.
  template <typename T>
  void write_object(std::uint64_t addr, const T& object) noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    write(addr, {reinterpret_cast<const Byte*>(&object), sizeof(T)});
  }
  template <typename T>
  [[nodiscard]] T read_object(std::uint64_t addr) noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    T object{};
    read(addr, {reinterpret_cast<Byte*>(&object), sizeof(T)});
    return object;
  }

  /// Pages currently materialized (for footprint assertions in tests).
  [[nodiscard]] std::size_t resident_pages() const noexcept;

  /// Pages handed out and not yet freed.
  [[nodiscard]] std::uint64_t allocated_pages() const noexcept;

  /// Disjoint runs on the free list (fragmentation, for tests).
  [[nodiscard]] std::size_t free_runs() const noexcept;

 private:
  friend class DmaBuffer;
  void free_pages(std::uint64_t addr, std::uint64_t pages) noexcept;

  Byte* page_for(std::uint64_t addr) noexcept;

  /// A leaf of the page table: storage of kLeafPages consecutive pages.
  static constexpr std::uint64_t kLeafBits = 9;
  static constexpr std::uint64_t kLeafPages = std::uint64_t{1} << kLeafBits;
  using Leaf = std::array<std::unique_ptr<Byte[]>, kLeafPages>;
  /// Leaves below this number (8 GiB of address space) sit in the flat
  /// directory, which grows only to the highest one touched.
  static constexpr std::uint64_t kNearLeaves = 4096;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Leaf>> near_leaves_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Leaf>> far_leaves_;
  std::size_t resident_pages_ = 0;
  // Free list of {first_page_no, page_count} runs, sorted by page and
  // coalesced on free: no two runs touch.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> free_runs_;
  std::uint64_t next_page_no_ = 1;  // page 0 reserved: address 0 stays invalid
  std::uint64_t allocated_pages_ = 0;
};

}  // namespace bx
