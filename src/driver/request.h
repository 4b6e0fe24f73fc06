// I/O request and completion types of the host driver's public API
// (the passthrough-facing surface, §2.1).
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bytes.h"
#include "common/sim_clock.h"
#include "nvme/spec.h"
#include "obs/attribution.h"

namespace bx::driver {

/// How the payload crosses PCIe. kPrp/kSgl are the NVMe-native mechanisms;
/// kBandSlim is the CMD-based prior work; kByteExpress is the paper's
/// queue-local inline transfer; kByteExpressOoo is the §3.3.2 future-work
/// identifier-based variant. kAuto delegates the choice per command to
/// the attached driver::MethodPolicy (live congestion signals + overload
/// backpressure, docs/POLICY.md); with no policy attached it is §4.2's
/// static hybrid: payloads at or below NvmeDriver::Config::
/// hybrid_threshold_bytes go ByteExpress, larger ones PRP. kAuto always
/// resolves to a concrete method before submission.
enum class TransferMethod : std::uint8_t {
  kPrp,
  kSgl,
  kByteExpress,
  kByteExpressOoo,
  kBandSlim,
  kAuto,  // stays last: every method below it is concrete
};

std::string_view transfer_method_name(TransferMethod method) noexcept;

/// Inline-chunk SQ slots a command of `method` occupies beyond its SQE —
/// what a SubmissionGate charges against a tenant's inline budget. PRP/SGL
/// carry no chunks; BandSlim fragments recycle slot by slot and never hold
/// a run of the ring.
std::uint32_t inline_slots_for(TransferMethod method,
                               std::uint64_t payload_len) noexcept;

struct IoRequest {
  nvme::IoOpcode opcode = nvme::IoOpcode::kVendorRawWrite;
  std::uint32_t nsid = 1;

  // Block I/O commands (kWrite / kRead).
  std::uint64_t slba = 0;
  std::uint32_t block_count = 0;

  // Host-to-device payload (writes, KV store values, CSD tasks).
  ConstByteSpan write_data{};
  // Device-to-host destination (reads, KV retrieve).
  ByteSpan read_buffer{};

  // Vendor command auxiliary field (CDW13 bits 31:8).
  std::uint32_t aux = 0;

  /// Read-direction commands with kSgl only: describe the destination as a
  /// bit-bucket descriptor, so the command completes without the data ever
  /// crossing the link (§5: "bitbucket descriptors can act as placeholders
  /// for unused segments"). CQE DW0 still reports the data size.
  bool discard_read_data = false;

  // KV commands: key rides inside the SQE (<= 16 bytes).
  nvme::KvKeyFields key{};

  TransferMethod method = TransferMethod::kPrp;

  /// Owning tenant (0 = untenanted). Tags trace events, routes the
  /// request through the driver's SubmissionGate (admission control and
  /// rate limiting), and attributes completions in per-tenant telemetry.
  std::uint16_t tenant = 0;

  /// Sim-time the request was queued before it reached the driver (0 =
  /// not queued). A caller that holds requests back (an open-loop arrival
  /// process, a software queue) stamps it; the driver then backdates the
  /// command's latency window to it, so the time queued before driver
  /// entry is measured and attributed as obs::WaitSegment::kRingWait
  /// instead of silently vanishing. The timeout deadline still runs from
  /// driver entry.
  Nanoseconds origin_ns = 0;
};

struct Completion {
  nvme::StatusField status{};
  std::uint32_t dw0 = 0;
  /// Bytes copied into read_buffer (read-direction commands).
  std::uint32_t bytes_returned = 0;
  /// Simulated submit-to-reap latency of the whole command. For a request
  /// with IoRequest::origin_ns set this starts there, so the time queued
  /// before driver entry is part of the measured window.
  Nanoseconds latency_ns = 0;
  /// Wait/service decomposition of latency_ns, valid at any queue depth:
  /// the segments sum EXACTLY to latency_ns for every completed command
  /// (obs::check_breakdown_additivity; the retry tail reports the final
  /// attempt, matching latency_ns).
  obs::LatencyBreakdown breakdown{};

  [[nodiscard]] bool ok() const noexcept { return status.is_success(); }
};

/// Handle for an in-flight asynchronous command.
struct Submitted {
  std::uint16_t qid = 0;
  std::uint16_t cid = 0;
  Nanoseconds submit_time_ns = 0;
};

}  // namespace bx::driver
