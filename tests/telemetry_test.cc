// Windowed telemetry sampler: window-grid semantics, exact conservation
// against the TrafficCounter under QD>1 multi-queue load, ring bounds,
// idle runs (one jump over many windows == one step per window),
// downsampling, reset semantics, the disabled path, and the TSV dump.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/testbed.h"
#include "driver/request.h"
#include "nvme/inline_read_wire.h"
#include "obs/telemetry.h"
#include "pcie/traffic_counter.h"
#include "test_util.h"

namespace bx {
namespace {

using core::Testbed;
using driver::TransferMethod;
using obs::LinkDir;
using obs::Telemetry;
using obs::TelemetryConfig;
using obs::TelemetrySample;
using obs::TlpKind;

TelemetryConfig tiny_config(Nanoseconds window_ns,
                            std::size_t max_windows = 1u << 16) {
  TelemetryConfig config;
  config.window_ns = window_ns;
  config.max_windows = max_windows;
  return config;
}

TEST(TelemetryWindowTest, AdvanceClosesExpiredWindowsOnTheGrid) {
  Telemetry telemetry(tiny_config(100));
  telemetry.on_tlps(LinkDir::kDownstream, TlpKind::kMWr, 2, 128, 192);
  telemetry.advance_to(50);  // still inside [0, 100): nothing closes
  EXPECT_EQ(telemetry.windows_closed(), 0u);

  telemetry.advance_to(250);  // closes [0,100) and [100,200)
  const std::vector<TelemetrySample> samples = telemetry.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].start_ns, 0);
  EXPECT_EQ(samples[0].end_ns, 100);
  EXPECT_EQ(samples[1].start_ns, 100);
  EXPECT_EQ(samples[1].end_ns, 200);
  // All traffic recorded before the first close lands in window 0.
  EXPECT_EQ(samples[0].of(LinkDir::kDownstream, TlpKind::kMWr).tlps, 2u);
  EXPECT_EQ(samples[0].of(LinkDir::kDownstream, TlpKind::kMWr).data_bytes,
            128u);
  EXPECT_EQ(samples[0].of(LinkDir::kDownstream, TlpKind::kMWr).wire_bytes,
            192u);
  EXPECT_EQ(samples[1].wire_bytes(), 0u);
}

TEST(TelemetryWindowTest, FlushClosesPartialWindowAndConservesSums) {
  Telemetry telemetry(tiny_config(100));
  telemetry.on_tlps(LinkDir::kDownstream, TlpKind::kMWr, 3, 100, 196);
  telemetry.advance_to(150);
  telemetry.on_tlps(LinkDir::kUpstream, TlpKind::kCpl, 1, 64, 92);
  telemetry.on_payload(300);
  telemetry.flush(150);  // partial window [100, 150)

  const std::vector<TelemetrySample> samples = telemetry.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples.back().start_ns, 100);
  EXPECT_EQ(samples.back().end_ns, 150);

  const auto totals = Telemetry::sum_flows(samples);
  EXPECT_EQ(totals[0][std::size_t(TlpKind::kMWr)].tlps, 3u);
  EXPECT_EQ(totals[0][std::size_t(TlpKind::kMWr)].wire_bytes, 196u);
  EXPECT_EQ(totals[1][std::size_t(TlpKind::kCpl)].data_bytes, 64u);
  std::uint64_t payload = 0;
  for (const TelemetrySample& s : samples) payload += s.payload_bytes;
  EXPECT_EQ(payload, 300u);
}

TEST(TelemetryWindowTest, RingCapDropsOldestAndCounts) {
  Telemetry telemetry(tiny_config(100, /*max_windows=*/4));
  telemetry.advance_to(1000);  // closes 10 empty windows
  EXPECT_EQ(telemetry.windows_closed(), 10u);
  EXPECT_EQ(telemetry.windows_dropped(), 6u);
  const std::vector<TelemetrySample> samples = telemetry.samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples.front().index, 6u);
  EXPECT_EQ(samples.back().index, 9u);
}

TEST(TelemetryWindowTest, DownsamplePreservesSumsAndSpan) {
  Telemetry telemetry(tiny_config(10));
  for (int i = 0; i < 100; ++i) {
    telemetry.on_tlps(LinkDir::kDownstream, TlpKind::kMWr, 1,
                      std::uint64_t(i), std::uint64_t(i) + 32);
    telemetry.on_payload(std::uint64_t(i));
    telemetry.advance_to((i + 1) * 10);
  }
  const std::vector<TelemetrySample> full = telemetry.samples();
  ASSERT_EQ(full.size(), 100u);
  const std::vector<TelemetrySample> thin = Telemetry::downsample(full, 7);
  ASSERT_LE(thin.size(), 7u);
  EXPECT_EQ(thin.front().start_ns, full.front().start_ns);
  EXPECT_EQ(thin.back().end_ns, full.back().end_ns);

  const auto want = Telemetry::sum_flows(full);
  const auto got = Telemetry::sum_flows(thin);
  for (std::size_t dir = 0; dir < obs::kLinkDirs; ++dir) {
    for (std::size_t kind = 0; kind < obs::kTlpKinds; ++kind) {
      EXPECT_EQ(got[dir][kind].tlps, want[dir][kind].tlps);
      EXPECT_EQ(got[dir][kind].data_bytes, want[dir][kind].data_bytes);
      EXPECT_EQ(got[dir][kind].wire_bytes, want[dir][kind].wire_bytes);
    }
  }
  std::uint64_t want_payload = 0, got_payload = 0;
  for (const TelemetrySample& s : full) want_payload += s.payload_bytes;
  for (const TelemetrySample& s : thin) got_payload += s.payload_bytes;
  EXPECT_EQ(got_payload, want_payload);
}

TEST(TelemetryWindowTest, DumpTsvHasHeaderAndOneRowPerWindow) {
  Telemetry telemetry(tiny_config(100));
  telemetry.on_tlps(LinkDir::kUpstream, TlpKind::kMWr, 1, 16, 48);
  telemetry.flush(130);
  const std::string tsv = Telemetry::dump_tsv(telemetry.samples(), 4.0);
  EXPECT_NE(tsv.find("# bx-telemetry v1 bytes_per_ns=4.000000"),
            std::string::npos);
  EXPECT_NE(tsv.find("payload_bytes\tbacklog"), std::string::npos);
  std::size_t lines = 0;
  for (const char c : tsv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, telemetry.samples().size() + 2);  // 2 header comments
}

TEST(TelemetryWindowTest, IdleRunExpandsToOneSamplePerWindow) {
  Telemetry telemetry(tiny_config(100));
  obs::Gauge occupancy;
  obs::Gauge inflight;
  telemetry.register_queue(1, &occupancy, &inflight);
  occupancy.set(3);
  inflight.set(5);
  telemetry.on_sq_doorbell(1, 4);
  telemetry.on_payload(64);
  telemetry.advance_to(1'050);  // one busy window, then nine idle ones
  EXPECT_EQ(telemetry.windows_closed(), 10u);
  const std::vector<TelemetrySample> samples = telemetry.samples();
  ASSERT_EQ(samples.size(), 10u);
  EXPECT_EQ(samples[0].payload_bytes, 64u);
  ASSERT_EQ(samples[0].queues.size(), 1u);
  EXPECT_EQ(samples[0].queues[0].sq_entries, 4u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].index, i);
    EXPECT_EQ(samples[i].start_ns, Nanoseconds(100 * i));
    EXPECT_EQ(samples[i].end_ns, Nanoseconds(100 * (i + 1)));
    EXPECT_EQ(samples[i].payload_bytes, 0u);
    ASSERT_EQ(samples[i].queues.size(), 1u);
    EXPECT_EQ(samples[i].queues[0].sq_doorbells, 0u);
    EXPECT_EQ(samples[i].queues[0].sq_occupancy, 3);  // gauges carry over
    EXPECT_EQ(samples[i].queues[0].inflight, 5);
  }
}

// Every field of a sample, for exact comparison.
std::string describe(const TelemetrySample& s) {
  std::string out = std::to_string(s.index) + " " +
                    std::to_string(s.start_ns) + "-" +
                    std::to_string(s.end_ns) + " flow";
  for (const auto& per_dir : s.flow) {
    for (const obs::FlowCell& cell : per_dir) {
      out += " " + std::to_string(cell.tlps) + "/" +
             std::to_string(cell.data_bytes) + "/" +
             std::to_string(cell.wire_bytes);
    }
  }
  out += " payload " + std::to_string(s.payload_bytes) + " stages";
  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    out += " " + std::to_string(s.stage_count[i]) + "/" +
           std::to_string(s.stage_ns[i]);
  }
  out += " backlog " + std::to_string(s.backlog) + " waits " +
         std::to_string(s.wait_count);
  for (const std::uint64_t ns : s.wait_ns) out += " " + std::to_string(ns);
  for (const obs::QueueWindow& q : s.queues) {
    out += " q" + std::to_string(q.qid) + ":" +
           std::to_string(q.sq_occupancy) + "," +
           std::to_string(q.inflight) + "," +
           std::to_string(q.sq_doorbells) + "," +
           std::to_string(q.sq_entries) + "," +
           std::to_string(q.cq_doorbells);
  }
  for (const obs::TenantWindow& t : s.tenants) {
    out += " t" + std::to_string(t.tenant) + ":" +
           std::to_string(t.admitted) + "," + std::to_string(t.rejected) +
           "," + std::to_string(t.payload_bytes) + "," +
           std::to_string(t.completions) + "," +
           std::to_string(t.inflight_slots);
  }
  out += " policy " + std::to_string(s.policy_inline) + "," +
         std::to_string(s.policy_dma) + "," +
         std::to_string(s.policy_rejects) + "," +
         std::to_string(s.policy_shedding);
  return out;
}

std::vector<std::string> describe(const std::vector<TelemetrySample>& all) {
  std::vector<std::string> out;
  for (const TelemetrySample& s : all) out.push_back(describe(s));
  return out;
}

class RecordingObserver : public Telemetry::WindowObserver {
 public:
  void on_window(const TelemetrySample& sample) override {
    seen.push_back(describe(sample));
  }
  std::vector<std::string> seen;
};

// A Telemetry with every kind of source registered, driven by a schedule.
struct IdleRunRig {
  IdleRunRig(Nanoseconds window_ns, std::size_t max_windows, bool observe)
      : telemetry(tiny_config(window_ns, max_windows)) {
    telemetry.register_queue(1, &occupancy[0], &inflight[0]);
    telemetry.register_queue(3, &occupancy[1], &inflight[1]);
    telemetry.set_backlog_gauge(&backlog);
    telemetry.register_tenant(0, &admitted, &rejected, &tenant_bytes,
                              &completions, &slots);
    telemetry.register_policy(&inline_decisions, &dma_decisions, &rejects,
                              &shedding);
    if (observe) telemetry.set_window_observer(&observer);
  }

  /// One hook, counter bump or gauge move picked by `pick`.
  void poke(std::uint64_t pick, std::uint64_t value) {
    switch (pick % 12) {
      case 0:
        telemetry.on_tlps(LinkDir(value % 2), TlpKind(value % 3), 1 + value % 4,
                          value, value + 24);
        break;
      case 1: telemetry.on_payload(value); break;
      case 2: telemetry.on_stage(obs::TraceStage(value % obs::kStageCount),
                                 value); break;
      case 3: telemetry.on_sq_doorbell(value % 2 ? 1 : 3, 1 + value % 8);
        break;
      case 4: telemetry.on_cq_doorbell(value % 2 ? 1 : 3); break;
      case 5: {
        obs::LatencyBreakdown breakdown;
        breakdown.ns[value % obs::kWaitSegmentCount] = value;
        telemetry.on_wait(breakdown);
        break;
      }
      case 6: occupancy[value % 2].set(std::int64_t(value % 17)); break;
      case 7: inflight[value % 2].set(std::int64_t(value % 9)); break;
      case 8: backlog.set(std::int64_t(value % 5)); break;
      case 9: admitted.add(value); slots.set(std::int64_t(value % 3)); break;
      case 10: completions.increment(); rejected.add(value % 2); break;
      default:
        inline_decisions.add(value % 3);
        dma_decisions.increment();
        shedding.set(std::int64_t(value % 2));
        break;
    }
  }

  Telemetry telemetry;
  obs::Gauge occupancy[2];
  obs::Gauge inflight[2];
  obs::Gauge backlog;
  obs::Counter admitted, rejected, tenant_bytes, completions;
  obs::Gauge slots;
  obs::Counter inline_decisions, dma_decisions, rejects;
  obs::Gauge shedding;
  RecordingObserver observer;
};

// The idle-run ring must be invisible: a seeded schedule of hooks, jumps,
// flushes and clears gives the same samples, TSV, counts and observer
// calls whether time moves one window per call or in one call.
TEST(TelemetryIdleRunTest, JumpingEqualsSteppingOneWindowPerCall) {
  constexpr Nanoseconds kWindow = 100;
  for (const bool observe : {false, true}) {
    for (const std::size_t max_windows : {1u, 3u, 7u, 40u, 1u << 16}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("observe=" + std::to_string(observe) + " max_windows=" +
                     std::to_string(max_windows) + " seed=" +
                     std::to_string(seed));
        IdleRunRig jump(kWindow, max_windows, observe);
        IdleRunRig step(kWindow, max_windows, observe);
        std::mt19937_64 rng(seed);
        Nanoseconds now = 0;
        // Advances `step` one window boundary per call up to `to`.
        const auto step_to = [&](Nanoseconds to) {
          for (Nanoseconds t = now + kWindow; t < to; t += kWindow) {
            step.telemetry.advance_to(t);
          }
          step.telemetry.advance_to(to);
        };
        for (int op = 0; op < 300; ++op) {
          const std::uint64_t pick = rng() % 100;
          if (pick < 50) {
            const std::uint64_t what = rng();
            const std::uint64_t value = rng() % 1000;
            jump.poke(what, value);
            step.poke(what, value);
            continue;
          }
          if (pick < 95) {
            const std::uint64_t kind = rng() % 4;
            const Nanoseconds to =
                now + (kind == 0   ? rng() % kWindow
                       : kind == 1 ? rng() % (4 * kWindow)
                       : kind == 2 ? rng() % (60 * kWindow)
                                   : rng() % (300 * kWindow));
            step_to(to);
            if (pick < 90) {
              jump.telemetry.advance_to(to);
            } else {
              jump.telemetry.flush(to);
              step.telemetry.flush(to);
            }
            now = to;
            continue;
          }
          jump.telemetry.clear(now);
          step.telemetry.clear(now);
        }
        step_to(now + 3 * kWindow + 7);
        jump.telemetry.flush(now + 3 * kWindow + 7);
        step.telemetry.flush(now + 3 * kWindow + 7);

        const std::vector<TelemetrySample> got = jump.telemetry.samples();
        const std::vector<TelemetrySample> want = step.telemetry.samples();
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(describe(got), describe(want));
        EXPECT_EQ(Telemetry::dump_tsv(got, 2.0),
                  Telemetry::dump_tsv(want, 2.0));
        EXPECT_EQ(jump.telemetry.windows_closed(),
                  step.telemetry.windows_closed());
        EXPECT_EQ(jump.telemetry.windows_dropped(),
                  step.telemetry.windows_dropped());
        EXPECT_LE(got.size(), max_windows);
        EXPECT_EQ(jump.observer.seen, step.observer.seen);
      }
    }
  }
}

// --- testbed integration ---

/// Closed-loop driver load: `ops` inline writes at `qd` outstanding per
/// queue, round-robin over all I/O queues.
void run_closed_loop(Testbed& bed, std::uint64_t ops, std::uint32_t qd,
                     std::uint32_t payload_size, TransferMethod method) {
  const std::uint16_t queues = bed.config().driver.io_queue_count;
  ByteVec payload(payload_size);
  fill_pattern(payload, payload_size);
  driver::IoRequest request;
  request.opcode = nvme::IoOpcode::kVendorRawWrite;
  request.method = method;
  request.write_data = payload;

  std::vector<driver::Submitted> inflight;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto qid = static_cast<std::uint16_t>(1 + i % queues);
    auto handle = bed.driver().submit(request, qid);
    ASSERT_TRUE(handle.is_ok());
    inflight.push_back(*handle);
    if (inflight.size() >= std::size_t{qd} * queues) {
      auto completion = bed.driver().wait(inflight.front());
      ASSERT_TRUE(completion.is_ok() && completion->ok());
      inflight.erase(inflight.begin());
    }
  }
  for (const driver::Submitted& handle : inflight) {
    auto completion = bed.driver().wait(handle);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
  }
}

// The tentpole acceptance check: a QD>1 multi-queue run yields >= 50
// windows whose per-direction sums reconcile *exactly* with the
// TrafficCounter, whose payload sums match what the host submitted, and
// whose per-queue doorbell deltas match the BAR write counts.
TEST(TelemetryTestbedTest, MultiQueueQd4ReconcilesExactly) {
  core::TestbedConfig config = test::small_testbed_config(/*io_queues=*/4);
  config.telemetry.window_ns = 2'000;
  Testbed bed(config);
  bed.reset_counters();  // re-baseline past the queue-creation traffic

  constexpr std::uint64_t kOps = 300;
  constexpr std::uint32_t kPayload = 256;
  run_closed_loop(bed, kOps, /*qd=*/4, kPayload,
                  TransferMethod::kByteExpress);

  bed.telemetry().flush(bed.clock().now());
  const std::vector<TelemetrySample> samples = bed.telemetry().samples();
  EXPECT_GE(samples.size(), 50u) << "window too coarse for this run";
  EXPECT_EQ(bed.telemetry().windows_dropped(), 0u);

  // Per-direction sums over all windows == TrafficCounter totals, exactly.
  const auto totals = Telemetry::sum_flows(samples);
  for (std::size_t dir = 0; dir < obs::kLinkDirs; ++dir) {
    const pcie::TrafficCell want =
        bed.traffic().total(static_cast<pcie::Direction>(dir));
    obs::FlowCell got;
    for (std::size_t kind = 0; kind < obs::kTlpKinds; ++kind) {
      got += totals[dir][kind];
    }
    EXPECT_EQ(got.tlps, want.tlps) << "dir " << dir;
    EXPECT_EQ(got.data_bytes, want.data_bytes) << "dir " << dir;
    EXPECT_EQ(got.wire_bytes, want.wire_bytes) << "dir " << dir;
  }

  // Payload accounting: every submitted byte shows up once.
  std::uint64_t payload = 0;
  for (const TelemetrySample& s : samples) payload += s.payload_bytes;
  EXPECT_EQ(payload, kOps * kPayload);

  // Doorbell deltas per queue == BAR register write counts. (reset_
  // counters() does not reset the BAR counters, so compare run deltas via
  // the telemetry re-baseline: sums start at zero after reset.)
  std::uint64_t sq_doorbells[5] = {};
  std::uint64_t cq_doorbells[5] = {};
  for (const TelemetrySample& s : samples) {
    for (const obs::QueueWindow& q : s.queues) {
      ASSERT_LE(q.qid, 4);
      sq_doorbells[q.qid] += q.sq_doorbells;
      cq_doorbells[q.qid] += q.cq_doorbells;
    }
  }
  std::uint64_t sq_total = 0;
  for (std::uint16_t qid = 1; qid <= 4; ++qid) {
    sq_total += sq_doorbells[qid];
    EXPECT_EQ(cq_doorbells[qid], kOps / 4)
        << "every command completes once on q" << qid;
  }
  EXPECT_EQ(sq_total, kOps) << "one SQ ring per inline command";
}

TEST(TelemetryTestbedTest, StageWindowsReconcileWithStageLog) {
  core::TestbedConfig config = test::small_testbed_config();
  config.telemetry.window_ns = 2'000;
  Testbed bed(config);

  ByteVec payload(200);
  fill_pattern(payload, 7);
  for (int i = 0; i < 25; ++i) {
    auto completion =
        bed.raw_write(payload, TransferMethod::kByteExpress, 1);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
  }
  bed.telemetry().flush(bed.clock().now());

  const nvme::StageStatsLog& log = bed.controller().stage_stats();
  std::uint64_t fetch_count = 0, fetch_ns = 0, chunk_count = 0,
                completion_count = 0;
  for (const TelemetrySample& s : bed.telemetry().samples()) {
    fetch_count += s.stage_count[std::size_t(obs::TraceStage::kSqeFetch)];
    fetch_ns += s.stage_ns[std::size_t(obs::TraceStage::kSqeFetch)];
    chunk_count += s.stage_count[std::size_t(obs::TraceStage::kChunkFetch)];
    completion_count +=
        s.stage_count[std::size_t(obs::TraceStage::kCompletion)];
  }
  EXPECT_EQ(fetch_count, log.sqe_fetch.count);
  EXPECT_EQ(fetch_ns, log.sqe_fetch.total_ns);
  EXPECT_EQ(chunk_count, log.chunk_fetch.count);
  EXPECT_EQ(completion_count, log.completion.count);
}

// ByteExpress-R reverse-direction conservation: over a run of inline
// reads the windowed upstream MWr flows telescope exactly to the traffic
// counter, and decompose exactly into the three posted-write classes the
// read path emits — chunk MWrs into the completion ring, CQE write-backs
// and MSI-X interrupts. No read byte crosses upstream any other way.
TEST(TelemetryTestbedTest, InlineReadWindowsReconcileUpstreamMwrExactly) {
  namespace inr = nvme::inline_read;
  core::TestbedConfig config = test::small_testbed_config();
  config.telemetry.window_ns = 2'000;
  Testbed bed(config);

  constexpr std::uint32_t kPayload = 300;
  ByteVec payload(kPayload);
  fill_pattern(payload, 11);
  auto seeded = bed.raw_write(payload, TransferMethod::kPrp, 1);
  ASSERT_TRUE(seeded.is_ok() && seeded->ok());
  bed.reset_counters();

  constexpr std::uint64_t kOps = 40;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    ByteVec out(kPayload);
    driver::IoRequest read;
    read.opcode = nvme::IoOpcode::kVendorRawRead;
    read.read_buffer = out;
    auto completion = bed.driver().execute(read, 1);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
    ASSERT_EQ(out, payload);
  }
  bed.telemetry().flush(bed.clock().now());

  // Per-direction window sums == TrafficCounter totals, exactly.
  const auto totals = Telemetry::sum_flows(bed.telemetry().samples());
  for (std::size_t dir = 0; dir < obs::kLinkDirs; ++dir) {
    obs::FlowCell got;
    for (std::size_t kind = 0; kind < obs::kTlpKinds; ++kind) {
      got += totals[dir][kind];
    }
    const pcie::TrafficCell want =
        bed.traffic().total(static_cast<pcie::Direction>(dir));
    EXPECT_EQ(got.tlps, want.tlps) << "dir " << dir;
    EXPECT_EQ(got.data_bytes, want.data_bytes) << "dir " << dir;
    EXPECT_EQ(got.wire_bytes, want.wire_bytes) << "dir " << dir;
  }

  // The chunk class alone carries exactly chunks-per-read 64 B slots.
  const std::uint32_t chunks = inr::read_chunks_for(kPayload);
  const pcie::TrafficCell chunk_cell = bed.traffic().cell(
      pcie::Direction::kUpstream, pcie::TrafficClass::kDataInlineRead);
  EXPECT_EQ(chunk_cell.tlps, kOps * chunks);
  EXPECT_EQ(chunk_cell.data_bytes, kOps * chunks * inr::kReadSlotBytes);

  // Upstream MWr decomposition: chunks + CQEs + MSI-X, nothing else.
  const pcie::TrafficCell cqe_cell = bed.traffic().cell(
      pcie::Direction::kUpstream, pcie::TrafficClass::kCompletion);
  const pcie::TrafficCell msix_cell = bed.traffic().cell(
      pcie::Direction::kUpstream, pcie::TrafficClass::kInterrupt);
  const obs::FlowCell& up_mwr =
      totals[std::size_t(LinkDir::kUpstream)][std::size_t(TlpKind::kMWr)];
  EXPECT_EQ(up_mwr.tlps, chunk_cell.tlps + cqe_cell.tlps + msix_cell.tlps);
  EXPECT_EQ(up_mwr.data_bytes,
            chunk_cell.data_bytes + cqe_cell.data_bytes + msix_cell.data_bytes);
  EXPECT_EQ(up_mwr.wire_bytes,
            chunk_cell.wire_bytes + cqe_cell.wire_bytes + msix_cell.wire_bytes);
  // And the PRP scatter path stayed cold.
  EXPECT_EQ(bed.traffic()
                .cell(pcie::Direction::kUpstream, pcie::TrafficClass::kDataPrp)
                .tlps,
            0u);
}

TEST(TelemetryTestbedTest, ResetCountersRestartsSampling) {
  core::TestbedConfig config = test::small_testbed_config();
  config.telemetry.window_ns = 2'000;
  Testbed bed(config);

  ByteVec payload(128);
  fill_pattern(payload, 3);
  auto first = bed.raw_write(payload, TransferMethod::kPrp, 1);
  ASSERT_TRUE(first.is_ok() && first->ok());

  bed.reset_counters();
  EXPECT_TRUE(bed.telemetry().samples().empty());
  EXPECT_EQ(bed.telemetry().windows_closed(), 0u);

  auto second = bed.raw_write(payload, TransferMethod::kByteExpress, 1);
  ASSERT_TRUE(second.is_ok() && second->ok());
  bed.telemetry().flush(bed.clock().now());

  // Post-reset samples reconcile with the post-reset traffic counters.
  const auto totals = Telemetry::sum_flows(bed.telemetry().samples());
  for (std::size_t dir = 0; dir < obs::kLinkDirs; ++dir) {
    obs::FlowCell got;
    for (std::size_t kind = 0; kind < obs::kTlpKinds; ++kind) {
      got += totals[dir][kind];
    }
    const pcie::TrafficCell want =
        bed.traffic().total(static_cast<pcie::Direction>(dir));
    EXPECT_EQ(got.wire_bytes, want.wire_bytes) << "dir " << dir;
    EXPECT_EQ(got.tlps, want.tlps) << "dir " << dir;
  }
}

TEST(TelemetryTestbedTest, DisabledTelemetryStaysEmpty) {
  core::TestbedConfig config = test::small_testbed_config();
  config.telemetry.enabled = false;
  Testbed bed(config);

  ByteVec payload(512);
  fill_pattern(payload, 11);
  for (int i = 0; i < 5; ++i) {
    auto completion =
        bed.raw_write(payload, TransferMethod::kByteExpress, 1);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
  }
  bed.telemetry().flush(bed.clock().now());
  EXPECT_TRUE(bed.telemetry().samples().empty());
  EXPECT_EQ(bed.telemetry().windows_closed(), 0u);
}

}  // namespace
}  // namespace bx
