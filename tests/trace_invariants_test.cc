// Trace-driven protocol invariants over real schedules: the checker in
// obs/invariants.h must pass every trace the system actually produces —
// QD1 per-method runs, the PR-1 cooperative stress schedules, and the
// OS-thread stress shape — and must catch deliberately corrupted traces
// (its own negative coverage). A final reconciliation test cross-checks
// the trace against the rings' own push/pop counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/stress.h"
#include "core/testbed.h"
#include "obs/invariants.h"
#include "obs/trace.h"
#include "test_util.h"

namespace bx {
namespace {

using core::Testbed;
using driver::TransferMethod;
using obs::TraceCheckOptions;
using obs::TraceCheckResult;
using obs::TraceEvent;
using obs::TraceStage;

ByteVec patterned(std::uint32_t size) {
  ByteVec payload(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    payload[i] = static_cast<Byte>(i * 11 + 3);
  }
  return payload;
}

std::string diagnose(const TraceCheckResult& result,
                     const std::vector<TraceEvent>& events) {
  std::string out = result.summary();
  out += "\n";
  for (const std::string& violation : result.violations) {
    out += "  " + violation + "\n";
  }
  out += obs::TraceRecorder::dump(events);
  return out;
}

bool has_violation(const TraceCheckResult& result, const std::string& text) {
  return std::any_of(result.violations.begin(), result.violations.end(),
                     [&](const std::string& v) {
                       return v.find(text) != std::string::npos;
                     });
}

// ---------------------------------------------------------------------------
// Positive: real traces pass the strict checker.
// ---------------------------------------------------------------------------

TEST(TraceInvariants, SingleCommandPerMethodPassesStrictCheck) {
  for (const TransferMethod method :
       {TransferMethod::kPrp, TransferMethod::kSgl,
        TransferMethod::kByteExpress, TransferMethod::kByteExpressOoo,
        TransferMethod::kBandSlim, TransferMethod::kAuto}) {
    auto config = test::small_testbed_config();
    Testbed bed(config);
    for (const std::uint32_t size : {1u, 64u, 130u, 2048u}) {
      auto completion = bed.raw_write(patterned(size), method);
      ASSERT_TRUE(completion.is_ok() && completion->ok());
    }
    const std::vector<TraceEvent> events = bed.trace().snapshot();
    TraceCheckOptions options;
    options.queue_depth = config.driver.io_queue_depth;
    const TraceCheckResult result =
        obs::check_trace_invariants(events, options);
    EXPECT_TRUE(result.ok()) << diagnose(result, events);
    EXPECT_GT(result.submits, 0u);
    EXPECT_EQ(result.submits, result.completions);
  }
}

// The deterministic cooperative stress schedules (the PR-1 harness) keep
// every invariant across mixed methods, queues and submitters.
TEST(TraceInvariants, CooperativeStressSchedulesPass) {
  for (const std::uint64_t seed : {0x5eedull, 7ull, 99ull}) {
    core::StressOptions options;
    options.seed = seed;
    options.submitters = 8;
    options.io_queues = 4;
    options.rounds = 4;
    options.ops_per_round = 24;
    options.capture_trace = true;
    const core::StressResult stress = core::run_stress(options);
    ASSERT_TRUE(stress.ok()) << stress.failure;
    ASSERT_FALSE(stress.trace_events.empty());

    TraceCheckOptions check;
    check.queue_depth = options.queue_depth;
    const TraceCheckResult result =
        obs::check_trace_invariants(stress.trace_events, check);
    EXPECT_TRUE(result.ok()) << "seed " << seed << "\n"
                             << diagnose(result, stress.trace_events);
    // The trace also holds the init-time admin traffic: one CQ-create,
    // one SQ-create, and one inline-read-ring advertise per I/O queue on
    // top of the harness's own ops.
    const std::uint64_t setup_cmds = 3ull * options.io_queues;
    EXPECT_EQ(result.submits, stress.ops_submitted + setup_cmds)
        << "seed " << seed;
    EXPECT_EQ(result.completions, stress.ops_completed + setup_cmds)
        << "seed " << seed;
  }
}

// The same schedule shape under real OS threads (the TSan configuration):
// the clock and the trace seq are sampled separately, so monotonicity is
// off and the documented submit/completion race is tolerated — all the
// structural invariants still hold.
TEST(TraceInvariants, OsThreadStressSchedulesPass) {
  core::StressOptions options;
  options.submitters = 8;
  options.io_queues = 4;
  options.rounds = 4;
  options.ops_per_round = 24;
  options.use_os_threads = true;
  options.capture_trace = true;
  const core::StressResult stress = core::run_stress(options);
  ASSERT_TRUE(stress.ok()) << stress.failure;
  ASSERT_FALSE(stress.trace_events.empty());

  TraceCheckOptions check;
  check.queue_depth = options.queue_depth;
  check.require_monotonic = false;
  check.allow_submit_completion_race = true;
  const TraceCheckResult result =
      obs::check_trace_invariants(stress.trace_events, check);
  EXPECT_TRUE(result.ok()) << diagnose(result, stress.trace_events);
  const std::uint64_t setup_cmds = 3ull * options.io_queues;
  EXPECT_EQ(result.submits, stress.ops_submitted + setup_cmds);
  EXPECT_EQ(result.completions, stress.ops_completed + setup_cmds);
}

// ---------------------------------------------------------------------------
// Negative: corrupting a genuine trace trips the matching check. Each case
// starts from a real ByteExpress QD1 trace so only the injected defect can
// be responsible for the violation.
// ---------------------------------------------------------------------------

class CorruptedTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    auto config = test::small_testbed_config();
    depth_ = config.driver.io_queue_depth;
    Testbed bed(config);
    bed.reset_counters();
    auto completion =
        bed.raw_write(patterned(130), TransferMethod::kByteExpress);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
    events_ = bed.trace().snapshot();
    ASSERT_FALSE(events_.empty());

    TraceCheckOptions options;
    options.queue_depth = depth_;
    const TraceCheckResult clean =
        obs::check_trace_invariants(events_, options);
    ASSERT_TRUE(clean.ok()) << diagnose(clean, events_);
  }

  [[nodiscard]] TraceCheckResult check() const {
    TraceCheckOptions options;
    options.queue_depth = depth_;
    return obs::check_trace_invariants(events_, options);
  }

  std::vector<TraceEvent>::iterator find_stage(TraceStage stage) {
    return std::find_if(
        events_.begin(), events_.end(),
        [&](const TraceEvent& e) { return e.stage == stage; });
  }

  std::vector<TraceEvent> events_;
  std::uint32_t depth_ = 0;
};

TEST_F(CorruptedTrace, DroppedDoorbellIsFetchBeyondPublished) {
  const auto doorbell = find_stage(TraceStage::kDoorbell);
  ASSERT_NE(doorbell, events_.end());
  events_.erase(doorbell);
  const TraceCheckResult result = check();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "beyond published doorbell tail"))
      << diagnose(result, events_);
}

TEST_F(CorruptedTrace, DuplicateCompletionIsCaught) {
  const auto completion = find_stage(TraceStage::kCompletion);
  ASSERT_NE(completion, events_.end());
  TraceEvent duplicate = *completion;
  duplicate.seq = events_.back().seq + 1;
  events_.push_back(duplicate);
  const TraceCheckResult result = check();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "completion without a matching"))
      << diagnose(result, events_);
}

TEST_F(CorruptedTrace, MissingCompletionIsCaught) {
  const auto completion = find_stage(TraceStage::kCompletion);
  ASSERT_NE(completion, events_.end());
  events_.erase(completion);
  const TraceCheckResult result = check();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "never completed"))
      << diagnose(result, events_);
}

TEST_F(CorruptedTrace, TeleportedChunkBreaksAdjacency) {
  const auto chunk = find_stage(TraceStage::kChunkFetch);
  ASSERT_NE(chunk, events_.end());
  chunk->slot = (chunk->slot + 2) % depth_;
  const TraceCheckResult result = check();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "not adjacent"))
      << diagnose(result, events_);
}

TEST_F(CorruptedTrace, RegressedTimestampIsCaught) {
  const auto exec = find_stage(TraceStage::kExec);
  ASSERT_NE(exec, events_.end());
  exec->start = 0;
  exec->end = 0;
  const TraceCheckResult result = check();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "regressed"))
      << diagnose(result, events_);
}

TEST_F(CorruptedTrace, TruncatedChunkBurstIsCaught) {
  // Drop everything from the last kChunkFetch onward: the burst never
  // finishes and the command never completes.
  auto last_chunk = events_.end();
  for (auto it = events_.begin(); it != events_.end(); ++it) {
    if (it->stage == TraceStage::kChunkFetch) last_chunk = it;
  }
  ASSERT_NE(last_chunk, events_.end());
  events_.erase(last_chunk, events_.end());
  const TraceCheckResult result = check();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "mid inline chunk burst"))
      << diagnose(result, events_);
}

// ---------------------------------------------------------------------------
// Reconciliation: the trace agrees with the rings' own counters — every
// published slot was doorbell-recorded and every reaped CQE was
// cq-doorbell-recorded, admin queue included.
// ---------------------------------------------------------------------------

TEST(TraceReconciliation, DoorbellsMatchRingCounters) {
  auto config = test::small_testbed_config();
  Testbed bed(config);  // trace on from construction; never cleared
  for (const TransferMethod method :
       {TransferMethod::kPrp, TransferMethod::kByteExpress,
        TransferMethod::kBandSlim}) {
    auto completion = bed.raw_write(patterned(200), method);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
  }
  // One admin round trip on top of the init-time admin traffic.
  auto stats = bed.driver().get_transfer_stats();
  ASSERT_TRUE(stats.is_ok());

  const std::vector<TraceEvent> events = bed.trace().snapshot();
  for (std::uint16_t qid = 0; qid <= config.driver.io_queue_count; ++qid) {
    std::uint64_t published = 0;
    std::uint64_t cq_doorbells = 0;
    for (const TraceEvent& e : events) {
      if (e.qid != qid) continue;
      if (e.stage == TraceStage::kDoorbell) published += e.aux;
      if (e.stage == TraceStage::kCqDoorbell) ++cq_doorbells;
    }
    EXPECT_EQ(published, bed.driver().sq_for_test(qid).slots_pushed())
        << "qid " << qid;
    EXPECT_EQ(cq_doorbells, bed.driver().cq_for_test(qid).cqes_popped())
        << "qid " << qid;
  }
}

}  // namespace
}  // namespace bx
