// PCM-style time-series telemetry for the simulated PCIe link.
//
// The paper's headline evidence is an Intel PCM trace: PCIe MWr/MRd/Cpl
// traffic sampled over time while a workload runs. Telemetry reproduces
// that view for the modeled link: simulated time is divided into fixed
// windows (Config::window_ns, default 10 us) and at every window boundary
// the sampler snapshots
//   * per-direction, per-TLP-kind link counters (TLPs, data bytes, wire
//     bytes) as deltas over the window,
//   * the payload bytes the host handed to the driver (for the
//     amplification ratio),
//   * controller stage-duration deltas (same taxonomy as TraceStage),
//   * per-queue gauges (SQ occupancy, in-flight commands) and doorbell
//     deltas, plus the controller's inline-chunk backlog gauge,
// into an in-memory ring of TelemetrySample records.
//
// Hot-path hooks (on_tlps / on_payload / on_stage / on_*_doorbell) only
// bump relaxed cumulative atomics — no locks, no allocation — so they are
// safe from any submitter thread and cheap enough for per-TLP call sites.
// Window rolling happens in advance_to(now): a relaxed fast path returns
// while `now` is inside the current window; the slow path takes a mutex
// and closes the first expired window by delta-ing the cumulative
// counters against the previous snapshot. When `now` has passed several
// window boundaries, the windows after the first are an *idle run*: no
// hook can fire inside the locked close, and their gauges would be read
// at the same instant, so they are recorded in O(1) as a count on the
// ring entry and expanded by samples(). Because every sample is a
// telescoping difference of the same cumulative counters, the sum of
// per-window deltas equals the counter totals *exactly* once flush() has
// closed the final partial window (tests/traffic_conservation_test.cc
// asserts this against pcie::TrafficCounter for every transfer method).
//
// Layering: bx_obs sits below bx_pcie, so this header cannot name
// pcie::Direction. LinkDir mirrors its numeric values (kDownstream=0,
// kUpstream=1); PcieLink casts when calling on_tlps().
//
// Consumers: obs::to_perfetto_json() (counter tracks), obs::
// to_prometheus_text() (exposition snapshot), the bxmon CLI (per-window
// table), and bench_common (the `timeseries` section of BENCH_*.json).
// See docs/TELEMETRY.md.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_clock.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bx::obs {

/// Link direction, numerically identical to pcie::Direction (bx_obs cannot
/// include pcie headers — the dependency points the other way).
enum class LinkDir : std::uint8_t { kDownstream = 0, kUpstream = 1 };
inline constexpr std::size_t kLinkDirs = 2;

/// TLP kind, matching how PCM attributes PCIe bandwidth.
enum class TlpKind : std::uint8_t { kMWr = 0, kMRd = 1, kCpl = 2 };
inline constexpr std::size_t kTlpKinds = 3;

[[nodiscard]] std::string_view link_dir_name(LinkDir dir) noexcept;
[[nodiscard]] std::string_view tlp_kind_name(TlpKind kind) noexcept;

struct TelemetryConfig {
  bool enabled = true;
  /// Window length in simulated nanoseconds (PCM-style sampling period).
  Nanoseconds window_ns = 10'000;
  /// Windows kept before the oldest are dropped (bound for long runs);
  /// drops are counted, never silent. An idle run of windows costs one
  /// count, so memory is bounded by the windows in which something
  /// happened.
  std::size_t max_windows = 1u << 16;
};

/// One (TLPs, data bytes, wire bytes) cell — the per-window analog of
/// pcie::TrafficCell.
struct FlowCell {
  std::uint64_t tlps = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t wire_bytes = 0;

  FlowCell& operator+=(const FlowCell& other) noexcept {
    tlps += other.tlps;
    data_bytes += other.data_bytes;
    wire_bytes += other.wire_bytes;
    return *this;
  }
};

/// Per-queue state captured at a window boundary: gauges are sampled
/// (point-in-time), doorbells are deltas over the window.
struct QueueWindow {
  std::uint16_t qid = 0;
  std::int64_t sq_occupancy = 0;
  std::int64_t inflight = 0;
  std::uint64_t sq_doorbells = 0;
  /// SQ slots (SQEs + inline chunks) published by those doorbells; with
  /// batched submission sq_entries / sq_doorbells is the per-window
  /// coalescing factor (1.0 = no coalescing).
  std::uint64_t sq_entries = 0;
  std::uint64_t cq_doorbells = 0;
};

/// Per-tenant state captured at a window boundary: service counters are
/// deltas over the window (sampled from the admission controller's and
/// scheduler's component-owned counters), inflight_slots is a gauge.
struct TenantWindow {
  std::uint16_t tenant = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t completions = 0;
  /// In-flight inline SQ slots charged against the tenant's budget.
  std::int64_t inflight_slots = 0;
};

/// One closed telemetry window.
struct TelemetrySample {
  std::uint64_t index = 0;
  Nanoseconds start_ns = 0;
  Nanoseconds end_ns = 0;

  /// flow[LinkDir][TlpKind], deltas over the window.
  std::array<std::array<FlowCell, kTlpKinds>, kLinkDirs> flow{};
  /// Application payload bytes submitted during the window.
  std::uint64_t payload_bytes = 0;
  /// Controller stage-duration deltas (TraceStage taxonomy).
  std::array<std::uint64_t, kStageCount> stage_count{};
  std::array<std::uint64_t, kStageCount> stage_ns{};
  /// Controller inline backlog gauge at window close (BandSlim streams +
  /// deferred OOO commands + in-flight reassemblies).
  std::int64_t backlog = 0;
  /// Wait/service attribution over the window: commands whose breakdown
  /// was reported, and the per-segment nanosecond sums (LatencyBreakdown
  /// taxonomy — obs/attribution.h). wait_ns summed over all segments
  /// equals the total latency of those commands, exactly (additivity).
  std::uint64_t wait_count = 0;
  std::array<std::uint64_t, kWaitSegmentCount> wait_ns{};
  std::vector<QueueWindow> queues;
  /// Per-tenant service deltas (empty when no tenants are registered).
  std::vector<TenantWindow> tenants;
  /// Adaptive-policy activity over the window (all zero until
  /// register_policy() is called — see docs/POLICY.md): kAuto decisions
  /// resolved inline / descriptor-DMA (SGL or PRP) and shed rejections
  /// are deltas; shedding queues is a gauge sampled at window close.
  std::uint64_t policy_inline = 0;
  std::uint64_t policy_dma = 0;
  std::uint64_t policy_rejects = 0;
  std::int64_t policy_shedding = 0;

  [[nodiscard]] const FlowCell& of(LinkDir dir, TlpKind kind) const noexcept {
    return flow[static_cast<std::size_t>(dir)][static_cast<std::size_t>(kind)];
  }
  /// Sum over TLP kinds for one direction.
  [[nodiscard]] FlowCell dir_total(LinkDir dir) const noexcept;
  /// Wire bytes over both directions and all kinds.
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept;
  /// Fraction of the window the link spent serializing `dir` traffic at
  /// `bytes_per_ns` (PcieLink's effective rate). 0 for an empty window.
  [[nodiscard]] double utilization(LinkDir dir, double bytes_per_ns)
      const noexcept;
  /// Wire bytes per payload byte within the window (0 when no payload).
  [[nodiscard]] double amplification() const noexcept;
};

class Telemetry {
 public:
  /// Consumer of every closed window, idle ones included, invoked
  /// synchronously with the telemetry mutex held. The observer must only
  /// update its own (innermost-locked) state: calling back into
  /// Telemetry, the driver or the link from on_window() deadlocks, and a
  /// gauge or counter registered for sampling must not move (the windows
  /// of an idle run share the values read at the run's first close). The
  /// sample is only valid during the call. The adaptive policy
  /// (policy::AdaptivePolicy) uses this to run its EWMA updates and
  /// hysteresis transitions on the window grid.
  class WindowObserver {
   public:
    virtual ~WindowObserver() = default;
    virtual void on_window(const TelemetrySample& sample) = 0;
  };

  explicit Telemetry(TelemetryConfig config = {});
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Reconfigures the sampler. Call during testbed assembly, before
  /// traffic flows.
  void configure(const TelemetryConfig& config);
  [[nodiscard]] const TelemetryConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }

  /// The link's effective data rate, for utilization percentages. Set by
  /// the Testbed from LinkConfig::bytes_per_ns().
  void set_link_rate(double bytes_per_ns) noexcept {
    bytes_per_ns_ = bytes_per_ns;
  }
  [[nodiscard]] double link_rate() const noexcept { return bytes_per_ns_; }

  // ---- registration (single-threaded testbed assembly) ----

  /// Registers queue `qid`'s occupancy gauges for sampling at window
  /// close. The gauges are component-owned (the driver's QueuePair) and
  /// must outlive the Telemetry reads; re-registering a qid replaces the
  /// previous pointers. NOT thread-safe against concurrent hooks: call
  /// before submitter threads start (same rule as init_io_queues()).
  void register_queue(std::uint16_t qid, const Gauge* sq_occupancy,
                      const Gauge* inflight);
  /// Registers the controller's inline-backlog gauge.
  void set_backlog_gauge(const Gauge* backlog) noexcept { backlog_ = backlog; }

  /// Registers tenant `tenant`'s service counters for delta sampling at
  /// window close (and its in-flight-slots gauge for point sampling).
  /// The counters are component-owned (tenant::AdmissionController /
  /// tenant::TenantScheduler) and must outlive the Telemetry reads; any
  /// pointer may be null (that column samples as 0). Same threading rule
  /// as register_queue: call during single-threaded assembly.
  void register_tenant(std::uint16_t tenant, const Counter* admitted,
                       const Counter* rejected, const Counter* payload_bytes,
                       const Counter* completions,
                       const Gauge* inflight_slots);

  /// Registers the adaptive policy's decision counters for delta sampling
  /// at window close (TelemetrySample::policy_*) plus its shedding-queues
  /// gauge for point sampling. Counters are component-owned
  /// (policy::AdaptivePolicy) and must outlive the reads; any pointer may
  /// be null. Single-threaded assembly, same rule as register_queue.
  void register_policy(const Counter* inline_decisions,
                       const Counter* dma_decisions, const Counter* rejects,
                       const Gauge* shedding_queues);

  /// Attaches the window observer (null detaches). Assembly-time only.
  void set_window_observer(WindowObserver* observer) noexcept {
    observer_ = observer;
  }

  // ---- hot-path hooks (relaxed atomics; any thread) ----

  void on_tlps(LinkDir dir, TlpKind kind, std::uint64_t tlps,
               std::uint64_t data_bytes, std::uint64_t wire_bytes) noexcept;
  void on_payload(std::uint64_t bytes) noexcept;
  void on_stage(TraceStage stage, Nanoseconds duration) noexcept;
  /// `entries` is the number of SQ slots the doorbell published: every
  /// SQE and inline chunk of the coalesced run it closes.
  void on_sq_doorbell(std::uint16_t qid, std::uint64_t entries = 1) noexcept;
  void on_cq_doorbell(std::uint16_t qid) noexcept;
  /// One completed command's wait/service breakdown (driver
  /// attribute_completion). Segment sums telescope into per-window deltas
  /// like every other cumulative counter.
  void on_wait(const LatencyBreakdown& breakdown) noexcept;

  // ---- window rolling ----

  /// Closes every window that `now` has moved past. The common case (still
  /// inside the current window) is one relaxed load; a jump over many
  /// windows costs one window close plus an O(1) idle run.
  void advance_to(Nanoseconds now);
  /// advance_to(now), then closes the in-progress partial window so that
  /// sample sums reconcile exactly with cumulative counters. The next
  /// window starts at `now`.
  void flush(Nanoseconds now);
  /// Drops all samples and re-baselines deltas at `now` (the Testbed's
  /// reset_counters() analog — cumulative hooks keep counting upward).
  void clear(Nanoseconds now);

  // ---- consumption ----

  /// Every held window in order, idle runs expanded (one sample each).
  [[nodiscard]] std::vector<TelemetrySample> samples() const;
  [[nodiscard]] std::uint64_t windows_closed() const noexcept {
    return windows_closed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t windows_dropped() const noexcept {
    return windows_dropped_.load(std::memory_order_relaxed);
  }

  /// Sums flow cells over `samples` (conservation checks, summaries).
  [[nodiscard]] static std::array<std::array<FlowCell, kTlpKinds>, kLinkDirs>
  sum_flows(const std::vector<TelemetrySample>& samples);

  /// Merges adjacent windows until at most `max_points` remain. Sums
  /// (flows, payload, stages, doorbells) are preserved exactly; gauges
  /// keep the last-window value. Used to bound BENCH_*.json timeseries
  /// sections and bxmon tables.
  [[nodiscard]] static std::vector<TelemetrySample> downsample(
      std::vector<TelemetrySample> samples, std::size_t max_points);

  /// Deterministic TSV rendering of `samples` — the bxmon dump/ingest
  /// format. The header comment embeds `bytes_per_ns` so an ingesting
  /// bxmon can recompute utilization.
  [[nodiscard]] static std::string dump_tsv(
      const std::vector<TelemetrySample>& samples, double bytes_per_ns);

 private:
  struct AtomicFlow {
    std::atomic<std::uint64_t> tlps{0};
    std::atomic<std::uint64_t> data_bytes{0};
    std::atomic<std::uint64_t> wire_bytes{0};
  };
  /// Per-queue cumulative doorbell counters plus the sampled gauges.
  /// unique_ptr because atomics are immovable and the vector resizes at
  /// registration time.
  struct QueueSource {
    std::uint16_t qid = 0;
    const Gauge* sq_occupancy = nullptr;
    const Gauge* inflight = nullptr;
    std::atomic<std::uint64_t> sq_doorbells{0};
    std::atomic<std::uint64_t> sq_entries{0};
    std::atomic<std::uint64_t> cq_doorbells{0};
    std::uint64_t last_sq_doorbells = 0;  // under mutex_
    std::uint64_t last_sq_entries = 0;    // under mutex_
    std::uint64_t last_cq_doorbells = 0;  // under mutex_
  };

  /// A ring entry: one window closed in place plus the number of idle
  /// windows that followed it on the grid (each window_ns long, starting
  /// at sample.end_ns, all deltas zero, the sample's gauges).
  struct Slot {
    TelemetrySample sample;
    std::uint64_t idle_after = 0;
  };

  /// Closes every window `now` has passed: the first one in place, the
  /// rest as an idle run on the same entry.
  void close_expired_locked(Nanoseconds now);
  /// Samples the counters into a fresh ring entry as window [start, end).
  void close_window_locked(Nanoseconds end);
  /// The next free ring entry, growing the ring while it holds fewer than
  /// max_windows + 1 entries.
  Slot& acquire_slot_locked();
  /// Drops the oldest windows until at most max_windows are held.
  void trim_locked();

  TelemetryConfig config_;
  double bytes_per_ns_ = 1.0;

  // Cumulative hot-path counters (relaxed; exact once quiesced).
  std::array<std::array<AtomicFlow, kTlpKinds>, kLinkDirs> flows_{};
  std::atomic<std::uint64_t> payload_bytes_{0};
  std::array<std::atomic<std::uint64_t>, kStageCount> stage_count_{};
  std::array<std::atomic<std::uint64_t>, kStageCount> stage_ns_{};
  std::atomic<std::uint64_t> wait_count_{0};
  std::array<std::atomic<std::uint64_t>, kWaitSegmentCount> wait_ns_{};
  /// Per-tenant sampled counters plus the last-seen values the window
  /// deltas telescope against (last_* under mutex_).
  struct TenantSource {
    std::uint16_t tenant = 0;
    const Counter* admitted = nullptr;
    const Counter* rejected = nullptr;
    const Counter* payload_bytes = nullptr;
    const Counter* completions = nullptr;
    const Gauge* inflight_slots = nullptr;
    std::uint64_t last_admitted = 0;
    std::uint64_t last_rejected = 0;
    std::uint64_t last_payload_bytes = 0;
    std::uint64_t last_completions = 0;
  };

  /// The adaptive policy's sampled counters (register_policy), with the
  /// last-seen values its window deltas telescope against (under mutex_).
  struct PolicySource {
    const Counter* inline_decisions = nullptr;
    const Counter* dma_decisions = nullptr;
    const Counter* rejects = nullptr;
    const Gauge* shedding_queues = nullptr;
    std::uint64_t last_inline = 0;
    std::uint64_t last_dma = 0;
    std::uint64_t last_rejects = 0;
  };

  /// Indexed by qid; slots for unregistered qids (e.g. the admin queue)
  /// are null and their doorbells are not tracked.
  std::vector<std::unique_ptr<QueueSource>> queues_;
  std::vector<TenantSource> tenants_;
  PolicySource policy_;
  bool policy_registered_ = false;
  WindowObserver* observer_ = nullptr;
  const Gauge* backlog_ = nullptr;

  /// End of the currently open window — the advance_to() fast-path guard.
  std::atomic<Nanoseconds> window_end_;
  std::atomic<std::uint64_t> windows_closed_{0};
  std::atomic<std::uint64_t> windows_dropped_{0};

  // Window-rolling state, all under mutex_.
  mutable std::mutex mutex_;
  Nanoseconds window_start_ = 0;
  std::uint64_t next_index_ = 0;
  std::array<std::array<FlowCell, kTlpKinds>, kLinkDirs> last_flows_{};
  std::uint64_t last_payload_bytes_ = 0;
  std::array<std::uint64_t, kStageCount> last_stage_count_{};
  std::array<std::uint64_t, kStageCount> last_stage_ns_{};
  std::uint64_t last_wait_count_ = 0;
  std::array<std::uint64_t, kWaitSegmentCount> last_wait_ns_{};
  /// Circular buffer of entries, oldest at ring_head_. Entries are reused
  /// in place, so their queues/tenants vectors keep their capacity; the
  /// buffer only grows (one entry at a time) while it is full.
  std::vector<std::unique_ptr<Slot>> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_entries_ = 0;
  /// Windows held: entries plus their idle runs (<= max_windows).
  std::uint64_t ring_windows_ = 0;
  /// Reused sample the observer sees for each window of an idle run.
  TelemetrySample idle_sample_;
};

}  // namespace bx::obs
