// Host-speed calibration. The benchmark's host numbers are wall times, and
// on a shared host the same code runs faster or slower from one minute to
// the next as other tenants load the machine's cores and caches. A fixed
// reference kernel, timed between the ops of every round, measures that
// speed; each round's host times are scaled by how much slower or faster
// the reference ran than on the host the benchmark was tuned on.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Wall time of one reference kernel on the tuning host (Intel Xeon,
/// Sapphire Rapids, 4 vCPUs under KVM, at its usual speed), in nanoseconds.
inline constexpr double kReferenceNominalNs = 2.7e6;

/// Reference samples of one round. The reference kernel is a fixed,
/// deterministic mix of the kinds of work the simulator does per op: a
/// cache-resident half (table updates, short copies, byte hashing, a
/// mutex) and a heap half (malloc/free churn of small blocks).
class Calibration {
 public:
  /// Times the reference once (a few ms). Call between ops, outside op
  /// timing.
  void sample();
  /// Wall time spent in sample() so far; not part of the round's loop.
  [[nodiscard]] std::uint64_t spent_ns() const { return spent_ns_; }
  /// The round's scale from wall time to calibrated time: nominal over the
  /// median sample. 1.0 without samples.
  [[nodiscard]] double scale() const;

 private:
  std::vector<std::uint64_t> ns_;
  std::uint64_t spent_ns_ = 0;
};

}  // namespace perfbench
