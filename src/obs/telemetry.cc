#include "obs/telemetry.h"

#include <algorithm>
#include <cstdio>

namespace bx::obs {

namespace {

constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

/// Zeroes every delta of `sample` and keeps its gauges: what a window in
/// which nothing happened samples.
void zero_deltas(TelemetrySample& sample) noexcept {
  sample.flow = {};
  sample.payload_bytes = 0;
  sample.stage_count = {};
  sample.stage_ns = {};
  sample.wait_count = 0;
  sample.wait_ns = {};
  for (QueueWindow& qw : sample.queues) {
    qw.sq_doorbells = 0;
    qw.sq_entries = 0;
    qw.cq_doorbells = 0;
  }
  for (TenantWindow& tw : sample.tenants) {
    tw.admitted = 0;
    tw.rejected = 0;
    tw.payload_bytes = 0;
    tw.completions = 0;
  }
  sample.policy_inline = 0;
  sample.policy_dma = 0;
  sample.policy_rejects = 0;
}

/// Puts `idle` on the grid as the `offset`-th window after `closed` (the
/// two may be the same sample).
void place_idle(TelemetrySample& idle, const TelemetrySample& closed,
                std::uint64_t offset, Nanoseconds window_ns) noexcept {
  const Nanoseconds start = closed.end_ns + (offset - 1) * window_ns;
  idle.index = closed.index + offset;
  idle.start_ns = start;
  idle.end_ns = start + window_ns;
}

}  // namespace

std::string_view link_dir_name(LinkDir dir) noexcept {
  return dir == LinkDir::kDownstream ? "downstream" : "upstream";
}

std::string_view tlp_kind_name(TlpKind kind) noexcept {
  switch (kind) {
    case TlpKind::kMWr: return "mwr";
    case TlpKind::kMRd: return "mrd";
    case TlpKind::kCpl: return "cpl";
  }
  return "?";
}

FlowCell TelemetrySample::dir_total(LinkDir dir) const noexcept {
  FlowCell total;
  for (const FlowCell& cell : flow[static_cast<std::size_t>(dir)]) {
    total += cell;
  }
  return total;
}

std::uint64_t TelemetrySample::wire_bytes() const noexcept {
  return dir_total(LinkDir::kDownstream).wire_bytes +
         dir_total(LinkDir::kUpstream).wire_bytes;
}

double TelemetrySample::utilization(LinkDir dir,
                                    double bytes_per_ns) const noexcept {
  if (end_ns <= start_ns || bytes_per_ns <= 0.0) return 0.0;
  const double serialize_ns =
      double(dir_total(dir).wire_bytes) / bytes_per_ns;
  return serialize_ns / double(end_ns - start_ns);
}

double TelemetrySample::amplification() const noexcept {
  return payload_bytes == 0 ? 0.0
                            : double(wire_bytes()) / double(payload_bytes);
}

Telemetry::Telemetry(TelemetryConfig config)
    : config_(config), window_end_(config.window_ns) {}

void Telemetry::configure(const TelemetryConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  config_ = config;
  window_end_.store(window_start_ + config_.window_ns, kRelaxed);
}

void Telemetry::register_queue(std::uint16_t qid, const Gauge* sq_occupancy,
                               const Gauge* inflight) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (queues_.size() <= qid) queues_.resize(qid + 1u);
  auto source = std::make_unique<QueueSource>();
  source->qid = qid;
  source->sq_occupancy = sq_occupancy;
  source->inflight = inflight;
  queues_[qid] = std::move(source);
}

void Telemetry::register_tenant(std::uint16_t tenant, const Counter* admitted,
                                const Counter* rejected,
                                const Counter* payload_bytes,
                                const Counter* completions,
                                const Gauge* inflight_slots) {
  std::lock_guard<std::mutex> lock(mutex_);
  TenantSource source;
  source.tenant = tenant;
  source.admitted = admitted;
  source.rejected = rejected;
  source.payload_bytes = payload_bytes;
  source.completions = completions;
  source.inflight_slots = inflight_slots;
  for (TenantSource& existing : tenants_) {
    if (existing.tenant == tenant) {
      existing = source;  // re-registration replaces (fresh delta baseline)
      return;
    }
  }
  tenants_.push_back(source);
}

void Telemetry::register_policy(const Counter* inline_decisions,
                                const Counter* dma_decisions,
                                const Counter* rejects,
                                const Gauge* shedding_queues) {
  std::lock_guard<std::mutex> lock(mutex_);
  policy_ = PolicySource{};
  policy_.inline_decisions = inline_decisions;
  policy_.dma_decisions = dma_decisions;
  policy_.rejects = rejects;
  policy_.shedding_queues = shedding_queues;
  policy_registered_ = true;
}

void Telemetry::on_tlps(LinkDir dir, TlpKind kind, std::uint64_t tlps,
                        std::uint64_t data_bytes,
                        std::uint64_t wire_bytes) noexcept {
  AtomicFlow& cell =
      flows_[static_cast<std::size_t>(dir)][static_cast<std::size_t>(kind)];
  cell.tlps.fetch_add(tlps, kRelaxed);
  cell.data_bytes.fetch_add(data_bytes, kRelaxed);
  cell.wire_bytes.fetch_add(wire_bytes, kRelaxed);
}

void Telemetry::on_payload(std::uint64_t bytes) noexcept {
  payload_bytes_.fetch_add(bytes, kRelaxed);
}

void Telemetry::on_stage(TraceStage stage, Nanoseconds duration) noexcept {
  const auto index = static_cast<std::size_t>(stage);
  stage_count_[index].fetch_add(1, kRelaxed);
  stage_ns_[index].fetch_add(duration, kRelaxed);
}

void Telemetry::on_sq_doorbell(std::uint16_t qid,
                               std::uint64_t entries) noexcept {
  if (qid < queues_.size() && queues_[qid] != nullptr) {
    queues_[qid]->sq_doorbells.fetch_add(1, kRelaxed);
    queues_[qid]->sq_entries.fetch_add(entries, kRelaxed);
  }
}

void Telemetry::on_cq_doorbell(std::uint16_t qid) noexcept {
  if (qid < queues_.size() && queues_[qid] != nullptr) {
    queues_[qid]->cq_doorbells.fetch_add(1, kRelaxed);
  }
}

void Telemetry::on_wait(const LatencyBreakdown& breakdown) noexcept {
  wait_count_.fetch_add(1, kRelaxed);
  for (std::size_t i = 0; i < kWaitSegmentCount; ++i) {
    wait_ns_[i].fetch_add(breakdown.ns[i], kRelaxed);
  }
}

Telemetry::Slot& Telemetry::acquire_slot_locked() {
  if (ring_entries_ == ring_.size()) {
    // Full (trim_locked() keeps it to max_windows + 1 entries): unroll
    // the circle so the new entry goes last.
    std::rotate(ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(ring_head_),
                ring_.end());
    ring_head_ = 0;
    ring_.push_back(std::make_unique<Slot>());
  }
  Slot& slot = *ring_[(ring_head_ + ring_entries_) % ring_.size()];
  ++ring_entries_;
  slot.idle_after = 0;
  return slot;
}

void Telemetry::close_window_locked(Nanoseconds end) {
  TelemetrySample& sample = acquire_slot_locked().sample;
  sample.index = next_index_++;
  sample.start_ns = window_start_;
  sample.end_ns = end;

  for (std::size_t dir = 0; dir < kLinkDirs; ++dir) {
    for (std::size_t kind = 0; kind < kTlpKinds; ++kind) {
      const AtomicFlow& cumulative = flows_[dir][kind];
      FlowCell now;
      now.tlps = cumulative.tlps.load(kRelaxed);
      now.data_bytes = cumulative.data_bytes.load(kRelaxed);
      now.wire_bytes = cumulative.wire_bytes.load(kRelaxed);
      FlowCell& last = last_flows_[dir][kind];
      sample.flow[dir][kind].tlps = now.tlps - last.tlps;
      sample.flow[dir][kind].data_bytes = now.data_bytes - last.data_bytes;
      sample.flow[dir][kind].wire_bytes = now.wire_bytes - last.wire_bytes;
      last = now;
    }
  }

  const std::uint64_t payload_now = payload_bytes_.load(kRelaxed);
  sample.payload_bytes = payload_now - last_payload_bytes_;
  last_payload_bytes_ = payload_now;

  for (std::size_t i = 0; i < kStageCount; ++i) {
    const std::uint64_t count_now = stage_count_[i].load(kRelaxed);
    const std::uint64_t ns_now = stage_ns_[i].load(kRelaxed);
    sample.stage_count[i] = count_now - last_stage_count_[i];
    sample.stage_ns[i] = ns_now - last_stage_ns_[i];
    last_stage_count_[i] = count_now;
    last_stage_ns_[i] = ns_now;
  }

  const std::uint64_t wait_count_now = wait_count_.load(kRelaxed);
  sample.wait_count = wait_count_now - last_wait_count_;
  last_wait_count_ = wait_count_now;
  for (std::size_t i = 0; i < kWaitSegmentCount; ++i) {
    const std::uint64_t ns_now = wait_ns_[i].load(kRelaxed);
    sample.wait_ns[i] = ns_now - last_wait_ns_[i];
    last_wait_ns_[i] = ns_now;
  }

  sample.backlog = backlog_ != nullptr ? backlog_->value() : 0;

  sample.queues.clear();
  for (const auto& source : queues_) {
    if (source == nullptr) continue;
    QueueWindow qw;
    qw.qid = source->qid;
    qw.sq_occupancy =
        source->sq_occupancy != nullptr ? source->sq_occupancy->value() : 0;
    qw.inflight = source->inflight != nullptr ? source->inflight->value() : 0;
    const std::uint64_t sq_now = source->sq_doorbells.load(kRelaxed);
    const std::uint64_t entries_now = source->sq_entries.load(kRelaxed);
    const std::uint64_t cq_now = source->cq_doorbells.load(kRelaxed);
    qw.sq_doorbells = sq_now - source->last_sq_doorbells;
    qw.sq_entries = entries_now - source->last_sq_entries;
    qw.cq_doorbells = cq_now - source->last_cq_doorbells;
    source->last_sq_doorbells = sq_now;
    source->last_sq_entries = entries_now;
    source->last_cq_doorbells = cq_now;
    sample.queues.push_back(qw);
  }

  sample.tenants.clear();
  for (TenantSource& source : tenants_) {
    TenantWindow tw;
    tw.tenant = source.tenant;
    const std::uint64_t admitted_now =
        source.admitted != nullptr ? source.admitted->value() : 0;
    const std::uint64_t rejected_now =
        source.rejected != nullptr ? source.rejected->value() : 0;
    const std::uint64_t payload_now =
        source.payload_bytes != nullptr ? source.payload_bytes->value() : 0;
    const std::uint64_t completions_now =
        source.completions != nullptr ? source.completions->value() : 0;
    tw.admitted = admitted_now - source.last_admitted;
    tw.rejected = rejected_now - source.last_rejected;
    tw.payload_bytes = payload_now - source.last_payload_bytes;
    tw.completions = completions_now - source.last_completions;
    tw.inflight_slots =
        source.inflight_slots != nullptr ? source.inflight_slots->value() : 0;
    source.last_admitted = admitted_now;
    source.last_rejected = rejected_now;
    source.last_payload_bytes = payload_now;
    source.last_completions = completions_now;
    sample.tenants.push_back(tw);
  }

  sample.policy_inline = 0;
  sample.policy_dma = 0;
  sample.policy_rejects = 0;
  sample.policy_shedding = 0;
  if (policy_registered_) {
    const std::uint64_t inline_now = policy_.inline_decisions != nullptr
                                         ? policy_.inline_decisions->value()
                                         : 0;
    const std::uint64_t dma_now =
        policy_.dma_decisions != nullptr ? policy_.dma_decisions->value() : 0;
    const std::uint64_t rejects_now =
        policy_.rejects != nullptr ? policy_.rejects->value() : 0;
    sample.policy_inline = inline_now - policy_.last_inline;
    sample.policy_dma = dma_now - policy_.last_dma;
    sample.policy_rejects = rejects_now - policy_.last_rejects;
    sample.policy_shedding = policy_.shedding_queues != nullptr
                                 ? policy_.shedding_queues->value()
                                 : 0;
    policy_.last_inline = inline_now;
    policy_.last_dma = dma_now;
    policy_.last_rejects = rejects_now;
  }

  if (observer_ != nullptr) observer_->on_window(sample);

  ++ring_windows_;
  windows_closed_.fetch_add(1, kRelaxed);
  window_start_ = end;
  window_end_.store(end + config_.window_ns, kRelaxed);
}

void Telemetry::close_expired_locked(Nanoseconds now) {
  // Re-check under the lock: another thread may have rolled the window.
  if (now < window_end_.load(kRelaxed)) return;
  const Nanoseconds window = config_.window_ns;
  const std::uint64_t idle = (now - window_start_) / window - 1;
  close_window_locked(window_start_ + window);
  if (idle > 0) {
    const std::size_t tail = (ring_head_ + ring_entries_ - 1) % ring_.size();
    Slot& slot = *ring_[tail];
    if (observer_ != nullptr) {
      idle_sample_ = slot.sample;
      zero_deltas(idle_sample_);
      for (std::uint64_t i = 1; i <= idle; ++i) {
        place_idle(idle_sample_, slot.sample, i, window);
        observer_->on_window(idle_sample_);
      }
    }
    slot.idle_after = idle;
    ring_windows_ += idle;
    next_index_ += idle;
    windows_closed_.fetch_add(idle, kRelaxed);
    window_start_ += idle * window;
    window_end_.store(window_start_ + window, kRelaxed);
  }
  trim_locked();
}

void Telemetry::trim_locked() {
  if (ring_windows_ <= config_.max_windows) return;
  std::uint64_t excess = ring_windows_ - config_.max_windows;
  ring_windows_ -= excess;
  windows_dropped_.fetch_add(excess, kRelaxed);
  while (excess > 0) {
    Slot& head = *ring_[ring_head_];
    if (excess <= head.idle_after) {
      // The drop ends inside the head's idle run: its first surviving
      // window becomes the head entry.
      place_idle(head.sample, head.sample, excess, config_.window_ns);
      zero_deltas(head.sample);
      head.idle_after -= excess;
      return;
    }
    excess -= 1 + head.idle_after;
    ring_head_ = (ring_head_ + 1) % ring_.size();
    --ring_entries_;
  }
}

void Telemetry::advance_to(Nanoseconds now) {
  if (!config_.enabled) return;
  if (now < window_end_.load(kRelaxed)) return;  // fast path
  std::lock_guard<std::mutex> lock(mutex_);
  close_expired_locked(now);
}

void Telemetry::flush(Nanoseconds now) {
  if (!config_.enabled) return;
  std::lock_guard<std::mutex> lock(mutex_);
  close_expired_locked(now);
  // Close the in-progress partial window (delta residuals -> sample) so
  // sample sums match cumulative counters exactly. The window grid
  // restarts at `now`.
  if (now > window_start_) {
    close_window_locked(now);
    trim_locked();
  }
}

void Telemetry::clear(Nanoseconds now) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_head_ = 0;
  ring_entries_ = 0;
  ring_windows_ = 0;
  next_index_ = 0;
  windows_closed_.store(0, kRelaxed);
  windows_dropped_.store(0, kRelaxed);
  // Re-baseline deltas at the current cumulative values: the hooks keep
  // counting upward, only the sampling restarts.
  for (std::size_t dir = 0; dir < kLinkDirs; ++dir) {
    for (std::size_t kind = 0; kind < kTlpKinds; ++kind) {
      const AtomicFlow& cumulative = flows_[dir][kind];
      last_flows_[dir][kind].tlps = cumulative.tlps.load(kRelaxed);
      last_flows_[dir][kind].data_bytes = cumulative.data_bytes.load(kRelaxed);
      last_flows_[dir][kind].wire_bytes = cumulative.wire_bytes.load(kRelaxed);
    }
  }
  last_payload_bytes_ = payload_bytes_.load(kRelaxed);
  for (std::size_t i = 0; i < kStageCount; ++i) {
    last_stage_count_[i] = stage_count_[i].load(kRelaxed);
    last_stage_ns_[i] = stage_ns_[i].load(kRelaxed);
  }
  last_wait_count_ = wait_count_.load(kRelaxed);
  for (std::size_t i = 0; i < kWaitSegmentCount; ++i) {
    last_wait_ns_[i] = wait_ns_[i].load(kRelaxed);
  }
  for (const auto& source : queues_) {
    if (source == nullptr) continue;
    source->last_sq_doorbells = source->sq_doorbells.load(kRelaxed);
    source->last_sq_entries = source->sq_entries.load(kRelaxed);
    source->last_cq_doorbells = source->cq_doorbells.load(kRelaxed);
  }
  for (TenantSource& source : tenants_) {
    source.last_admitted =
        source.admitted != nullptr ? source.admitted->value() : 0;
    source.last_rejected =
        source.rejected != nullptr ? source.rejected->value() : 0;
    source.last_payload_bytes =
        source.payload_bytes != nullptr ? source.payload_bytes->value() : 0;
    source.last_completions =
        source.completions != nullptr ? source.completions->value() : 0;
  }
  if (policy_registered_) {
    policy_.last_inline = policy_.inline_decisions != nullptr
                              ? policy_.inline_decisions->value()
                              : 0;
    policy_.last_dma =
        policy_.dma_decisions != nullptr ? policy_.dma_decisions->value() : 0;
    policy_.last_rejects =
        policy_.rejects != nullptr ? policy_.rejects->value() : 0;
  }
  window_start_ = now;
  window_end_.store(now + config_.window_ns, kRelaxed);
}

std::vector<TelemetrySample> Telemetry::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TelemetrySample> out;
  out.reserve(ring_windows_);
  for (std::size_t i = 0; i < ring_entries_; ++i) {
    const Slot& slot = *ring_[(ring_head_ + i) % ring_.size()];
    out.push_back(slot.sample);
    if (slot.idle_after == 0) continue;
    TelemetrySample idle = slot.sample;
    zero_deltas(idle);
    for (std::uint64_t k = 1; k <= slot.idle_after; ++k) {
      place_idle(idle, slot.sample, k, config_.window_ns);
      out.push_back(idle);
    }
  }
  return out;
}

std::array<std::array<FlowCell, kTlpKinds>, kLinkDirs> Telemetry::sum_flows(
    const std::vector<TelemetrySample>& samples) {
  std::array<std::array<FlowCell, kTlpKinds>, kLinkDirs> total{};
  for (const TelemetrySample& sample : samples) {
    for (std::size_t dir = 0; dir < kLinkDirs; ++dir) {
      for (std::size_t kind = 0; kind < kTlpKinds; ++kind) {
        total[dir][kind] += sample.flow[dir][kind];
      }
    }
  }
  return total;
}

std::vector<TelemetrySample> Telemetry::downsample(
    std::vector<TelemetrySample> samples, std::size_t max_points) {
  if (max_points == 0 || samples.size() <= max_points) return samples;
  // Merge runs of ceil(n / max_points) adjacent windows. Sums accumulate;
  // gauges (occupancy, backlog) keep the run's final value, matching the
  // point-in-time semantics of a coarser sampling window.
  const std::size_t stride =
      (samples.size() + max_points - 1) / max_points;
  std::vector<TelemetrySample> merged;
  merged.reserve((samples.size() + stride - 1) / stride);
  for (std::size_t begin = 0; begin < samples.size(); begin += stride) {
    const std::size_t end = std::min(begin + stride, samples.size());
    TelemetrySample out = samples[end - 1];  // gauges + end_ns from the last
    out.index = merged.size();
    out.start_ns = samples[begin].start_ns;
    for (std::size_t i = begin; i + 1 < end; ++i) {
      const TelemetrySample& add = samples[i];
      for (std::size_t dir = 0; dir < kLinkDirs; ++dir) {
        for (std::size_t kind = 0; kind < kTlpKinds; ++kind) {
          out.flow[dir][kind] += add.flow[dir][kind];
        }
      }
      out.payload_bytes += add.payload_bytes;
      for (std::size_t s = 0; s < kStageCount; ++s) {
        out.stage_count[s] += add.stage_count[s];
        out.stage_ns[s] += add.stage_ns[s];
      }
      out.wait_count += add.wait_count;
      for (std::size_t s = 0; s < kWaitSegmentCount; ++s) {
        out.wait_ns[s] += add.wait_ns[s];
      }
      for (const QueueWindow& qw : add.queues) {
        for (QueueWindow& target : out.queues) {
          if (target.qid == qw.qid) {
            target.sq_doorbells += qw.sq_doorbells;
            target.sq_entries += qw.sq_entries;
            target.cq_doorbells += qw.cq_doorbells;
          }
        }
      }
      for (const TenantWindow& tw : add.tenants) {
        for (TenantWindow& target : out.tenants) {
          if (target.tenant == tw.tenant) {
            target.admitted += tw.admitted;
            target.rejected += tw.rejected;
            target.payload_bytes += tw.payload_bytes;
            target.completions += tw.completions;
          }
        }
      }
      out.policy_inline += add.policy_inline;
      out.policy_dma += add.policy_dma;
      out.policy_rejects += add.policy_rejects;
    }
    merged.push_back(std::move(out));
  }
  return merged;
}

std::string Telemetry::dump_tsv(const std::vector<TelemetrySample>& samples,
                                double bytes_per_ns) {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line), "# bx-telemetry v1 bytes_per_ns=%.6f\n",
                bytes_per_ns);
  out += line;
  out +=
      "# index\tstart_ns\tend_ns"
      "\tmwr_tlps_down\tmwr_data_down\tmwr_wire_down"
      "\tmrd_tlps_down\tmrd_data_down\tmrd_wire_down"
      "\tcpl_tlps_down\tcpl_data_down\tcpl_wire_down"
      "\tmwr_tlps_up\tmwr_data_up\tmwr_wire_up"
      "\tmrd_tlps_up\tmrd_data_up\tmrd_wire_up"
      "\tcpl_tlps_up\tcpl_data_up\tcpl_wire_up"
      "\tpayload_bytes\tbacklog\n";
  for (const TelemetrySample& sample : samples) {
    std::snprintf(line, sizeof(line), "%llu\t%llu\t%llu",
                  static_cast<unsigned long long>(sample.index),
                  static_cast<unsigned long long>(sample.start_ns),
                  static_cast<unsigned long long>(sample.end_ns));
    out += line;
    for (std::size_t dir = 0; dir < kLinkDirs; ++dir) {
      for (std::size_t kind = 0; kind < kTlpKinds; ++kind) {
        const FlowCell& cell = sample.flow[dir][kind];
        std::snprintf(line, sizeof(line), "\t%llu\t%llu\t%llu",
                      static_cast<unsigned long long>(cell.tlps),
                      static_cast<unsigned long long>(cell.data_bytes),
                      static_cast<unsigned long long>(cell.wire_bytes));
        out += line;
      }
    }
    std::snprintf(line, sizeof(line), "\t%llu\t%lld\n",
                  static_cast<unsigned long long>(sample.payload_bytes),
                  static_cast<long long>(sample.backlog));
    out += line;
  }
  return out;
}

}  // namespace bx::obs
