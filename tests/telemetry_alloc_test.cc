// Heap allocations of the telemetry sampler, counted by a replacement
// global operator new: an idle run of windows and steady-state window
// closes (once the ring has reached its size) must not allocate. This is
// the deterministic proxy for the sampler's host cost per window; it
// lives in its own binary because the counting operator new replaces the
// allocator for the whole program.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "obs/metrics.h"
#include "obs/telemetry.h"

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

namespace bx {
namespace {

using obs::LinkDir;
using obs::Telemetry;
using obs::TelemetryConfig;
using obs::TelemetrySample;
using obs::TlpKind;

constexpr Nanoseconds kWindow = 10'000;

class CountingObserver : public Telemetry::WindowObserver {
 public:
  void on_window(const TelemetrySample& /*sample*/) override { ++calls; }
  std::uint64_t calls = 0;
};

// A sampler with queue, tenant and policy sources, so every sample
// carries the vectors that a fresh sample would have to allocate.
struct Rig {
  explicit Rig(std::size_t max_windows)
      : telemetry([max_windows] {
          TelemetryConfig config;
          config.window_ns = kWindow;
          config.max_windows = max_windows;
          return config;
        }()) {
    for (std::uint16_t qid = 1; qid <= 4; ++qid) {
      telemetry.register_queue(qid, &occupancy, &inflight);
    }
    telemetry.register_tenant(0, &admitted, nullptr, nullptr, nullptr,
                              nullptr);
    telemetry.register_tenant(1, &admitted, nullptr, nullptr, nullptr,
                              nullptr);
    telemetry.register_policy(&admitted, nullptr, nullptr, &occupancy);
    telemetry.set_window_observer(&observer);
  }

  /// Closes enough busy windows to bring the ring to its full size and
  /// one idle run to size the observer's reused idle sample.
  void warm_up() {
    for (int i = 0; i < 200; ++i) busy_window();
    now += 5 * kWindow;
    telemetry.advance_to(now);
  }

  /// Some traffic, then one window boundary.
  void busy_window() {
    telemetry.on_tlps(LinkDir::kDownstream, TlpKind::kMWr, 2, 128, 176);
    telemetry.on_payload(100);
    telemetry.on_sq_doorbell(1, 2);
    admitted.increment();
    now += kWindow;
    telemetry.advance_to(now);
  }

  Telemetry telemetry;
  obs::Gauge occupancy;
  obs::Gauge inflight;
  obs::Counter admitted;
  CountingObserver observer;
  Nanoseconds now = 0;
};

TEST(TelemetryAllocTest, IdleRunOfTenThousandWindowsAllocatesNothing) {
  Rig rig(/*max_windows=*/64);
  rig.warm_up();
  rig.busy_window();

  const std::uint64_t closed = rig.telemetry.windows_closed();
  const std::uint64_t calls = rig.observer.calls;
  const std::uint64_t before = g_allocations.load();
  rig.now += 10'000 * kWindow;
  rig.telemetry.advance_to(rig.now);
  const std::uint64_t allocations = g_allocations.load() - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(rig.telemetry.windows_closed() - closed, 10'000u);
  EXPECT_EQ(rig.observer.calls - calls, 10'000u);
}

TEST(TelemetryAllocTest, SteadyStateClosesAllocateNothing) {
  Rig rig(/*max_windows=*/64);
  rig.warm_up();

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1'000; ++i) {
    rig.busy_window();
    if (i % 100 == 0) {
      rig.now += 30 * kWindow;  // an idle run that eats into the ring
      rig.telemetry.advance_to(rig.now);
    }
  }
  const std::uint64_t allocations = g_allocations.load() - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(rig.telemetry.windows_dropped(),
            rig.telemetry.windows_closed() - 64);
}

}  // namespace
}  // namespace bx
