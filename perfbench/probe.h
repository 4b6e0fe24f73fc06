// Host-side probes of the traced run: wall-clock spans around each call the
// benchmark makes into the library (one op span per client call, one pump
// span per Controller::poll_once), plus heap allocations counted by span.
//
// Everything here sits outside the library. The traced run installs its
// own pump with NvmeDriver::set_pump, taking its own lock, so the
// controller's share of host time and the time spent waiting for that lock
// are measured from outside, without instrumenting the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/testbed.h"

namespace perfbench {

/// What the calling thread is doing, for the allocation split.
enum class SpanKind : int { kNone = 0, kDriver = 1, kController = 2 };

/// Allocation counts of the calling thread since it started counting,
/// indexed by SpanKind. Only counted while the thread is inside a traced
/// op span (see OpScope).
struct AllocCounts {
  std::uint64_t by_kind[3] = {0, 0, 0};
};

inline std::uint64_t wall_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One recorded span. `op` is the index of the op span that caused it
/// (an op span names itself), so the spans of one request share it.
struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t op = 0;
  std::uint32_t thread = 0;
  bool is_poll = false;
  bool progress = false;
};

/// Per-thread probe state. Traced and untraced op blocks alternate on
/// each thread, so the traced run measures its own overhead in place.
struct Probe {
  std::uint32_t thread = 0;
  /// True while the current op block is traced.
  bool traced = false;
  /// Traced op spans so far; the id of the current one.
  std::uint64_t op_index = 0;

  // Totals over traced op spans.
  std::uint64_t op_ns = 0;         // sum of op spans
  std::uint64_t pump_ns = 0;       // sum of pump spans (lock wait + poll)
  std::uint64_t poll_ns = 0;       // sum of poll_once spans, lock held
  std::uint64_t lock_wait_ns = 0;  // sum of waits for the pump lock
  std::uint64_t polls = 0;
  std::uint64_t idle_polls = 0;
  /// Allocations inside traced op spans, by SpanKind.
  AllocCounts allocs{};
  AllocCounts allocs_at_bind{};

  /// Spans of the first `span_budget` traced ops, kept for the export.
  std::vector<Span> spans;
  std::uint64_t span_budget = 0;
};

/// Binds `probe` to the calling thread (nullptr unbinds). The allocations
/// counted while a probe is bound are added to its `allocs` on unbind.
void bind_probe(Probe* probe) noexcept;

/// Installs the traced pump on `testbed`'s driver. `lock` serializes the
/// controller, as the testbed's own pump does with its firmware mutex.
void install_traced_pump(bx::core::Testbed& testbed, std::mutex& lock);

/// Brackets one client call. On a traced block it records the op span
/// and attributes allocations to the driver (outside the pump) or the
/// controller (inside it); otherwise it only reads the clock. `probe` is
/// null on an untraced run.
class OpScope {
 public:
  explicit OpScope(Probe* probe) noexcept;
  ~OpScope() { finish(); }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;
  /// Ends the span (once) and returns its wall duration.
  std::uint64_t finish() noexcept;

 private:
  Probe* probe_;
  std::uint64_t start_ns_;
  std::uint64_t duration_ns_ = 0;
  bool finished_ = false;
};

/// Writes every probe's kept spans as Chrome trace_event JSON ("X"
/// complete events, microseconds). Returns false if the file cannot be
/// written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const Probe*>& probes);

}  // namespace perfbench
