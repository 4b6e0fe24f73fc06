#include "calib.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "probe.h"

namespace perfbench {
namespace {

constexpr int kIterations = 6'000;
constexpr std::size_t kBufferBytes = 16 * 1024;
constexpr std::size_t kTableWords = 4096;
constexpr int kAllocations = 20'000;
constexpr std::size_t kLiveBlocks = 256;

/// The compute half's working set: small enough to stay in a core's caches
/// and allocated once, so that the program's cache footprint does not
/// change its speed.
struct Workspace {
  std::array<std::uint64_t, kTableWords> table{};
  std::array<std::uint8_t, kBufferBytes> src{};
  std::array<std::uint8_t, kBufferBytes> dst{};
  std::mutex lock;
};

volatile std::uint64_t g_sink = 0;

std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The compute half: table updates under a mutex, short copies and byte
/// hashing, all in cache.
std::uint64_t compute(Workspace& w, int iterations) {
  std::uint64_t state = 0x5eed;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i + 8 <= w.src.size(); i += 8) {
    const std::uint64_t v = mix(state);
    std::memcpy(w.src.data() + i, &v, 8);
  }
  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t r = mix(state);
    {
      std::lock_guard<std::mutex> guard(w.lock);
      w.table[r % kTableWords] += r;
    }
    const std::size_t len = 64 + (r >> 16) % 1024;
    const std::size_t from = (r >> 32) % (kBufferBytes - len);
    const std::size_t to = (r >> 40) % (kBufferBytes - len);
    std::memcpy(w.dst.data() + to, w.src.data() + from, len);
    for (std::size_t b = 0; b < 64; ++b) {
      hash = (hash ^ w.dst[to + b]) * 0x100000001b3ULL;
    }
    hash ^= w.table[(hash >> 7) % kTableWords];
  }
  return hash;
}

/// The allocator half: malloc/free churn of 16 B .. 2 KiB blocks, at most
/// kLiveBlocks live. It shares the process heap with the program, which
/// couples it slightly to the program's heap state; without it the kernel
/// tracked the host's speed on raw_batch only half as well.
std::uint64_t churn(int allocations) {
  std::array<void*, kLiveBlocks> live{};
  std::uint64_t state = 0xa110c;
  std::uint64_t sum = 0;
  for (int i = 0; i < allocations; ++i) {
    const std::uint64_t r = mix(state);
    void*& block = live[r % kLiveBlocks];
    std::free(block);
    block = std::malloc(16 + (r >> 20) % 2048);
    if (block != nullptr) {
      static_cast<std::uint8_t*>(block)[0] = static_cast<std::uint8_t>(r);
      sum += static_cast<std::uint8_t*>(block)[0];
    }
  }
  for (void* block : live) std::free(block);
  return sum;
}

/// Runs the reference kernel once; returns its wall time in ns.
std::uint64_t run_reference() noexcept {
  static thread_local Workspace workspace;
  g_sink = compute(workspace, kIterations / 16);  // warm the caches
  const std::uint64_t start = wall_ns();
  g_sink = compute(workspace, kIterations) + churn(kAllocations);
  return wall_ns() - start;
}

}  // namespace

void Calibration::sample() {
  const std::uint64_t start = wall_ns();
  ns_.push_back(run_reference());
  spent_ns_ += wall_ns() - start;
}

double Calibration::scale() const {
  if (ns_.empty()) return 1.0;
  std::vector<std::uint64_t> v = ns_;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return kReferenceNominalNs / static_cast<double>(*mid);
}

}  // namespace perfbench
