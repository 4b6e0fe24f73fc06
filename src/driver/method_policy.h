// The driver's seam for online transfer-method selection.
//
// A request submitted with TransferMethod::kAuto delegates the
// ByteExpress-vs-PRP choice (and the decision to shed load outright) to
// the MethodPolicy attached via NvmeDriver::set_method_policy(). The
// driver consults the policy once per resolve_method() call — every
// submit path (submit/execute/batch/pipeline/retries) goes through that
// seam — and feeds completed commands back through on_outcome() so the
// policy can learn from the PR 8 wait/service breakdown.
//
// Layering mirrors SubmissionGate: the interface lives in the driver, the
// concrete engine (policy::AdaptivePolicy, src/policy/) lives above it,
// so bx_driver never depends on bx_policy.
//
// Threading contract (same rules as SubmissionGate):
//   * decide() is called with NO driver locks held and may be called from
//     any submitter thread; the policy synchronizes internally.
//   * on_outcome() is called with the queue's pending_mutex held — the
//     policy's own mutex is innermost and the policy must NOT call back
//     into the driver or telemetry from it.
//   * register_queue() is assembly-time only (init_io_queues()); the
//     gauge pointers are driver-owned and outlive the policy's reads.
#pragma once

#include <cstdint>

#include "common/sim_clock.h"
#include "driver/request.h"
#include "obs/metrics.h"

namespace bx::driver {

/// One kAuto resolution. When `shed` is set the driver rejects the
/// command with kResourceExhausted instead of queueing it (overload
/// backpressure); `method` is then meaningless.
struct PolicyDecision {
  TransferMethod method = TransferMethod::kPrp;
  bool shed = false;
};

class MethodPolicy {
 public:
  virtual ~MethodPolicy() = default;

  /// Resolves one kAuto request on `qid` at sim-time `now`. Must return a
  /// concrete, feasible method (never kAuto); infeasible choices
  /// would re-route through the driver's fallback machinery and pollute
  /// its fallback accounting.
  [[nodiscard]] virtual PolicyDecision decide(const IoRequest& request,
                                              std::uint16_t qid,
                                              Nanoseconds now) = 0;

  /// One completed command's measured outcome (any resolution path:
  /// reaped, timed out, retried). `method` is the resolved method the
  /// attempt actually used. Called under pending_mutex — keep it cheap
  /// and never call back into the driver.
  virtual void on_outcome(std::uint16_t qid, TransferMethod method,
                          const Completion& completion) = 0;

  /// Assembly-time registration of a queue's live occupancy gauges
  /// (driver-owned, sampled by decide() for instantaneous saturation).
  virtual void register_queue(std::uint16_t qid, std::uint32_t queue_depth,
                              const obs::Gauge* sq_occupancy,
                              const obs::Gauge* inflight) = 0;
};

}  // namespace bx::driver
