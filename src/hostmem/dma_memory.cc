#include "hostmem/dma_memory.h"

#include <algorithm>
#include <cstring>

namespace bx {

DmaBuffer& DmaBuffer::operator=(DmaBuffer&& other) noexcept {
  if (this != &other) {
    if (memory_ != nullptr) {
      memory_->free_pages(addr_, size_ / kHostPageSize);
    }
    memory_ = other.memory_;
    addr_ = other.addr_;
    size_ = other.size_;
    other.memory_ = nullptr;
    other.addr_ = 0;
    other.size_ = 0;
  }
  return *this;
}

DmaBuffer::~DmaBuffer() {
  if (memory_ != nullptr) {
    memory_->free_pages(addr_, size_ / kHostPageSize);
  }
}

void DmaBuffer::write(std::uint64_t offset, ConstByteSpan data) noexcept {
  BX_ASSERT(valid());
  BX_ASSERT(offset + data.size() <= size_);
  memory_->write(addr_ + offset, data);
}

void DmaBuffer::read(std::uint64_t offset, ByteSpan out) const noexcept {
  BX_ASSERT(valid());
  BX_ASSERT(offset + out.size() <= size_);
  memory_->read(addr_ + offset, out);
}

DmaBuffer DmaMemory::allocate_pages(std::uint64_t pages) {
  BX_ASSERT(pages > 0);
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t first_page = 0;
  // First fit over the sorted free list (the lowest run that fits); exact
  // or split.
  for (std::size_t i = 0; i < free_runs_.size(); ++i) {
    auto& [run_start, run_len] = free_runs_[i];
    if (run_len >= pages) {
      first_page = run_start;
      run_start += pages;
      run_len -= pages;
      if (run_len == 0) {
        free_runs_.erase(free_runs_.begin() + static_cast<std::ptrdiff_t>(i));
      }
      break;
    }
  }
  if (first_page == 0) {
    first_page = next_page_no_;
    next_page_no_ += pages;
  }
  allocated_pages_ += pages;
  return {this, first_page * kHostPageSize, pages * kHostPageSize};
}

void DmaMemory::free_pages(std::uint64_t addr, std::uint64_t pages) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  BX_ASSERT(is_aligned(addr, kHostPageSize));
  BX_ASSERT(allocated_pages_ >= pages);
  allocated_pages_ -= pages;
  const std::uint64_t first = addr / kHostPageSize;
  const auto next = std::lower_bound(
      free_runs_.begin(), free_runs_.end(), first,
      [](const auto& run, std::uint64_t page) { return run.first < page; });
  const bool joins_next = next != free_runs_.end() &&
                          first + pages == next->first;
  if (next != free_runs_.begin()) {
    auto& prev = *(next - 1);
    if (prev.first + prev.second == first) {
      prev.second += pages;
      if (joins_next) {
        prev.second += next->second;
        free_runs_.erase(next);
      }
      return;
    }
  }
  if (joins_next) {
    next->first = first;
    next->second += pages;
    return;
  }
  free_runs_.insert(next, {first, pages});
}

Byte* DmaMemory::page_for(std::uint64_t addr) noexcept {
  const std::uint64_t page_no = addr / kHostPageSize;
  const std::uint64_t leaf_no = page_no >> kLeafBits;
  std::unique_ptr<Leaf>* leaf = nullptr;
  if (leaf_no < kNearLeaves) {
    if (near_leaves_.size() <= leaf_no) near_leaves_.resize(leaf_no + 1);
    leaf = &near_leaves_[leaf_no];
  } else {
    leaf = &far_leaves_[leaf_no];
  }
  if (*leaf == nullptr) *leaf = std::make_unique<Leaf>();
  std::unique_ptr<Byte[]>& page = (**leaf)[page_no & (kLeafPages - 1)];
  if (page == nullptr) {
    page = std::make_unique<Byte[]>(kHostPageSize);  // zero-filled
    ++resident_pages_;
  }
  return page.get();
}

void DmaMemory::write(std::uint64_t addr, ConstByteSpan data) noexcept {
  BX_ASSERT_MSG(addr != 0 || data.empty(), "write to null DMA address");
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t current = addr + done;
    const std::uint64_t in_page = current % kHostPageSize;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kHostPageSize - in_page, data.size() - done));
    std::memcpy(page_for(current) + in_page, data.data() + done, chunk);
    done += chunk;
  }
}

void DmaMemory::read(std::uint64_t addr, ByteSpan out) noexcept {
  BX_ASSERT_MSG(addr != 0 || out.empty(), "read from null DMA address");
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t current = addr + done;
    const std::uint64_t in_page = current % kHostPageSize;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kHostPageSize - in_page, out.size() - done));
    std::memcpy(out.data() + done, page_for(current) + in_page, chunk);
    done += chunk;
  }
}

std::size_t DmaMemory::resident_pages() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_pages_;
}

std::uint64_t DmaMemory::allocated_pages() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocated_pages_;
}

std::size_t DmaMemory::free_runs() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_runs_.size();
}

}  // namespace bx
