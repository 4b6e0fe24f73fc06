// The controller arbiter (Controller::pick, docs/TENANCY.md
// "Arbitration"), checked two ways:
//
//   * Arbiter.* — pick sequences. With equal weights and no urgent queue
//     the arbiter must grant exactly what the plain round-robin cursor
//     walk of the Cosmos+ get_nvme_cmd() loop grants; the model of that
//     walk is written here, independently of the controller. Weights and
//     the urgent class are checked against their stated rules.
//   * ArbitrationPin.* — simulated timing pinned exactly. A multi-queue
//     sweep and the ablation_arbitration aggressor/victim interleave
//     must reproduce recorded sim_ns and victim latencies to the
//     nanosecond, so an arbitration change that shifts multi-queue
//     timing cannot pass tier-1 unseen.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "controller/controller.h"
#include "core/testbed.h"
#include "driver/request.h"
#include "test_util.h"

namespace bx {
namespace {

using controller::Controller;
using driver::TransferMethod;

// ------------------------------------------------------- pick sequences

/// Reference model: the firmware poll loop walks every qid in
/// [0, max_queues) starting at the cursor, grants the first backlogged
/// queue and resumes one past it.
class CursorWalkModel {
 public:
  explicit CursorWalkModel(std::uint16_t max_queues)
      : backlog_(max_queues, 0) {}

  void add(std::uint16_t qid) { ++backlog_[qid]; }

  /// The qid granted next, or -1 when nothing is backlogged.
  int pick() {
    const auto n = static_cast<std::uint16_t>(backlog_.size());
    for (std::uint16_t i = 0; i < n; ++i) {
      const auto qid = static_cast<std::uint16_t>((cursor_ + i) % n);
      if (backlog_[qid] > 0) {
        --backlog_[qid];
        cursor_ = static_cast<std::uint16_t>((qid + 1) % n);
        return qid;
      }
    }
    return -1;
  }

  /// Testbed setup ends with admin commands, so the walk resumes at 1.
  void set_cursor(std::uint16_t cursor) { cursor_ = cursor; }

 private:
  std::vector<std::uint32_t> backlog_;
  std::uint16_t cursor_ = 0;
};

/// One poll_once(); returns the qid it granted (-1 when it granted none).
int poll_and_observe(core::Testbed& bed, std::uint16_t queues) {
  std::vector<std::uint64_t> before(queues + 1);
  for (std::uint16_t qid = 0; qid <= queues; ++qid) {
    before[qid] = bed.controller().grants(qid);
  }
  if (!bed.controller().poll_once()) return -1;
  int granted = -1;
  for (std::uint16_t qid = 0; qid <= queues; ++qid) {
    const std::uint64_t delta = bed.controller().grants(qid) - before[qid];
    if (delta == 0) continue;
    EXPECT_EQ(delta, 1u);
    EXPECT_EQ(granted, -1) << "two queues granted by one poll";
    granted = qid;
  }
  return granted;
}

/// Submits one single-SQE PRP write (one grant of work) on `qid`.
driver::Submitted submit_one(core::Testbed& bed, std::uint16_t qid,
                             const ByteVec& payload) {
  driver::IoRequest request;
  request.write_data = ConstByteSpan(payload);
  request.method = TransferMethod::kPrp;
  auto submitted = bed.driver().submit(request, qid);
  EXPECT_TRUE(submitted.is_ok()) << submitted.status().to_string();
  return submitted.value();
}

void drain(core::Testbed& bed, const std::vector<driver::Submitted>& handles) {
  for (const driver::Submitted& handle : handles) {
    auto completion = bed.driver().wait(handle);
    ASSERT_TRUE(completion.is_ok()) << completion.status().to_string();
    EXPECT_TRUE(completion->ok());
  }
}

TEST(Arbiter, EqualWeightPicksMatchCursorWalkModel) {
  ByteVec payload(256, Byte{0x5c});
  for (const std::uint16_t queues : {2, 3, 5, 8, 16}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << "queues=" << queues << " seed=" << seed);
      core::Testbed bed(test::small_testbed_config(queues, 256));
      CursorWalkModel model(Controller::Config{}.max_queues);
      model.set_cursor(1);
      Rng rng(seed * 0x9e37 + queues);
      std::vector<driver::Submitted> handles;
      // Bursty availability: most steps add 0-2 commands on random
      // queues, some add a burst to one queue, some add none, so the
      // walk sees empty, single and crowded rounds.
      for (int step = 0; step < 240; ++step) {
        const std::uint64_t kind = rng.next_below(8);
        const std::uint64_t adds =
            kind == 0 ? 0 : kind == 1 ? rng.next_in(3, 6) : rng.next_below(3);
        const auto burst_qid =
            static_cast<std::uint16_t>(rng.next_in(1, queues));
        for (std::uint64_t a = 0; a < adds; ++a) {
          const auto qid =
              kind == 1 ? burst_qid
                        : static_cast<std::uint16_t>(rng.next_in(1, queues));
          handles.push_back(submit_one(bed, qid, payload));
          model.add(qid);
        }
        ASSERT_EQ(poll_and_observe(bed, queues), model.pick())
            << "step " << step;
      }
      for (int expected = model.pick(); expected >= 0;
           expected = model.pick()) {
        ASSERT_EQ(poll_and_observe(bed, queues), expected);
      }
      EXPECT_EQ(poll_and_observe(bed, queues), -1);
      drain(bed, handles);
    }
  }
}

TEST(Arbiter, WeightIsAConsecutiveGrantBudget) {
  // Weights 3, 1, 2 with every queue backlogged: 1,1,1,2,3,3 repeats.
  core::Testbed bed(test::small_testbed_config(3, 256));
  bed.controller().set_queue_arbitration(1, 3);
  bed.controller().set_queue_arbitration(3, 2);
  ByteVec payload(256, Byte{0x3c});
  std::vector<driver::Submitted> handles;
  for (int i = 0; i < 12; ++i) {
    for (std::uint16_t qid = 1; qid <= 3; ++qid) {
      handles.push_back(submit_one(bed, qid, payload));
    }
  }
  std::vector<int> picks;
  for (int i = 0; i < 18; ++i) picks.push_back(poll_and_observe(bed, 3));
  const std::vector<int> cycle = {1, 1, 1, 2, 3, 3};
  for (std::size_t i = 0; i < picks.size(); ++i) {
    EXPECT_EQ(picks[i], cycle[i % cycle.size()]) << "poll " << i;
  }
  drain(bed, handles);
}

TEST(Arbiter, QueueThatRunsDryForfeitsItsBudget) {
  core::TestbedConfig config = test::small_testbed_config(2, 256);
  core::Testbed bed(config);
  bed.controller().set_queue_arbitration(1, 3);
  ByteVec payload(256, Byte{0x3c});
  std::vector<driver::Submitted> handles;
  handles.push_back(submit_one(bed, 1, payload));
  handles.push_back(submit_one(bed, 2, payload));
  EXPECT_EQ(poll_and_observe(bed, 2), 1);
  // Refilled before its budget is spent: queue 1 keeps the grant.
  handles.push_back(submit_one(bed, 1, payload));
  EXPECT_EQ(poll_and_observe(bed, 2), 1);
  // Dry with one grant of budget left: the walk moves on.
  EXPECT_EQ(poll_and_observe(bed, 2), 2);
  // Back in the rotation, queue 1 starts a fresh budget.
  handles.push_back(submit_one(bed, 1, payload));
  handles.push_back(submit_one(bed, 1, payload));
  handles.push_back(submit_one(bed, 2, payload));
  EXPECT_EQ(poll_and_observe(bed, 2), 1);
  EXPECT_EQ(poll_and_observe(bed, 2), 1);
  EXPECT_EQ(poll_and_observe(bed, 2), 2);
  EXPECT_EQ(poll_and_observe(bed, 2), -1);
  drain(bed, handles);
}

TEST(Arbiter, UrgentPreemptionIsBounded) {
  // Queue 2 urgent, queues 1 and 3 normal. While a normal queue waits,
  // the urgent queue takes at most kUrgentBurstLimit grants in a row,
  // then exactly one normal grant follows; once the normal class is
  // empty, urgent grants run unbounded.
  constexpr std::uint32_t kBurst = Controller::kUrgentBurstLimit;
  core::Testbed bed(test::small_testbed_config(3, 256));
  bed.controller().set_queue_arbitration(2, 1, /*urgent=*/true);
  ByteVec payload(256, Byte{0x3c});
  std::vector<driver::Submitted> handles;
  for (int i = 0; i < 60; ++i) handles.push_back(submit_one(bed, 2, payload));
  for (int i = 0; i < 3; ++i) {
    handles.push_back(submit_one(bed, 1, payload));
    handles.push_back(submit_one(bed, 3, payload));
  }
  std::vector<int> picks;
  for (int pick = poll_and_observe(bed, 3); pick >= 0;
       pick = poll_and_observe(bed, 3)) {
    picks.push_back(pick);
  }
  ASSERT_EQ(picks.size(), 66u);
  // Six normal grants, each after exactly kBurst urgent ones, alternating
  // between the normal queues in cursor order.
  std::vector<int> expected;
  for (int normal : {1, 3, 1, 3, 1, 3}) {
    expected.insert(expected.end(), kBurst, 2);
    expected.push_back(normal);
  }
  expected.insert(expected.end(), 66 - expected.size(), 2);
  EXPECT_EQ(picks, expected);

  // Clearing the urgent flag returns queue 2 to the plain rotation.
  drain(bed, handles);
  handles.clear();
  bed.controller().set_queue_arbitration(2, 1, /*urgent=*/false);
  for (std::uint16_t qid : {1, 2, 3, 1, 2, 3}) {
    handles.push_back(submit_one(bed, qid, payload));
  }
  picks.clear();
  for (int i = 0; i < 6; ++i) picks.push_back(poll_and_observe(bed, 3));
  EXPECT_EQ(picks, (std::vector<int>{1, 2, 3, 1, 2, 3}));
  drain(bed, handles);
}

// ------------------------------------------------------------ timing pin

/// One point of the microbench_multiqueue scaling sweep (same testbed,
/// same batches): `ops` 64 B ByteExpress raw writes round-robined as
/// depth-`depth` batches over `queues` I/O queues. Returns sim_ns.
std::uint64_t multiqueue_point(std::uint16_t queues, std::uint32_t depth,
                               std::uint64_t ops) {
  core::TestbedConfig config;
  config.ssd.geometry.channels = 2;
  config.ssd.geometry.ways = 2;
  config.ssd.geometry.blocks_per_die = 64;
  config.ssd.geometry.pages_per_block = 64;
  config.driver.io_queue_count = queues;
  core::Testbed bed(config);
  ByteVec payload(64);
  fill_pattern(payload, 0x42);
  driver::IoRequest request;
  request.opcode = nvme::IoOpcode::kVendorRawWrite;
  request.method = TransferMethod::kByteExpress;
  request.write_data = {payload.data(), payload.size()};
  std::vector<driver::IoRequest> batch(depth, request);

  const Nanoseconds t0 = bed.clock().now();
  const std::uint64_t rounds =
      std::max<std::uint64_t>(1, ops / (std::uint64_t{queues} * depth));
  std::vector<driver::Submitted> handles;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    handles.clear();
    for (std::uint16_t qid = 1; qid <= queues; ++qid) {
      auto result = bed.driver().submit_batch({batch.data(), batch.size()},
                                              qid);
      EXPECT_TRUE(result.is_ok()) << result.status().to_string();
      if (!result.is_ok()) return 0;
      handles.insert(handles.end(), result->handles.begin(),
                     result->handles.end());
    }
    for (const driver::Submitted& handle : handles) {
      auto completion = bed.driver().wait(handle);
      EXPECT_TRUE(completion.is_ok() && completion->ok());
    }
  }
  return static_cast<std::uint64_t>(bed.clock().now() - t0);
}

TEST(ArbitrationPin, MultiQueueSweepSimTimeIsExact) {
  struct Point {
    std::uint16_t queues;
    std::uint32_t depth;
    std::uint64_t sim_ns;
  };
  // Recorded with the plain round-robin cursor walk; 1024 ops per point.
  const Point points[] = {
      {1, 1, 4'097'024}, {1, 8, 3'954'560},  {4, 1, 4'097'024},
      {4, 8, 3'954'560}, {16, 1, 4'097'024}, {16, 8, 3'954'560},
  };
  for (const Point& point : points) {
    EXPECT_EQ(multiqueue_point(point.queues, point.depth, 1024),
              point.sim_ns)
        << "queues=" << point.queues << " depth=" << point.depth;
  }
}

struct VictimTiming {
  std::uint64_t latency_sum_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t sim_ns = 0;
};

/// ablation_arbitration's interleave: each round submits a 4 KiB
/// aggressor write on queue 1 (unless `aggressor` is null), then a 64 B
/// ByteExpress victim write on queue 2, and waits for both.
VictimTiming victim_timing(const TransferMethod* aggressor,
                           std::uint64_t rounds) {
  // ablation_arbitration's testbed: the bench defaults (PCIe Gen2 x8,
  // OpenSSD-like geometry, two I/O queues).
  core::Testbed bed(bench::BenchEnv{}.testbed_config());
  ByteVec big(4096);
  fill_pattern(big, 2);
  ByteVec small(64);
  fill_pattern(small, 1);
  LatencyHistogram latency;
  VictimTiming timing;
  const Nanoseconds t0 = bed.clock().now();
  for (std::uint64_t i = 0; i < rounds; ++i) {
    driver::Submitted big_handle{};
    if (aggressor != nullptr) {
      driver::IoRequest request;
      request.opcode = nvme::IoOpcode::kVendorRawWrite;
      request.method = *aggressor;
      request.write_data = big;
      auto submitted = bed.driver().submit(request, 1);
      EXPECT_TRUE(submitted.is_ok());
      big_handle = submitted.value();
    }
    driver::IoRequest victim;
    victim.opcode = nvme::IoOpcode::kVendorRawWrite;
    victim.method = TransferMethod::kByteExpress;
    victim.write_data = small;
    auto small_handle = bed.driver().submit(victim, 2);
    EXPECT_TRUE(small_handle.is_ok());
    auto small_done = bed.driver().wait(*small_handle);
    EXPECT_TRUE(small_done.is_ok() && small_done->ok());
    latency.record(small_done->latency_ns);
    timing.latency_sum_ns += small_done->latency_ns;
    if (aggressor != nullptr) {
      auto big_done = bed.driver().wait(big_handle);
      EXPECT_TRUE(big_done.is_ok() && big_done->ok());
    }
  }
  timing.p99_ns = latency.percentile(99);
  timing.sim_ns = static_cast<std::uint64_t>(bed.clock().now() - t0);
  return timing;
}

TEST(ArbitrationPin, AggressorVictimInterleaveIsExact) {
  // ablation_arbitration ops=1024: 257 rounds per row. Recorded with the
  // plain round-robin cursor walk.
  constexpr std::uint64_t kRounds = 257;
  struct Row {
    const char* name;
    bool has_aggressor;
    TransferMethod aggressor;
    VictimTiming expected;
  };
  const Row rows[] = {
      {"solo", false, TransferMethod::kByteExpress,
       {1'028'257, 4'001, 1'028'257}},
      {"prp", true, TransferMethod::kPrp, {2'596'471, 10'103, 3'007'157}},
      {"bandslim", true, TransferMethod::kBandSlim,
       {1'031'188, 4'032, 110'209'567}},
      {"byteexpress", true, TransferMethod::kByteExpress,
       {13'031'699, 50'707, 13'987'225}},
  };
  for (const Row& row : rows) {
    const VictimTiming got =
        victim_timing(row.has_aggressor ? &row.aggressor : nullptr, kRounds);
    EXPECT_EQ(got.latency_sum_ns, row.expected.latency_sum_ns) << row.name;
    EXPECT_EQ(got.p99_ns, row.expected.p99_ns) << row.name;
    EXPECT_EQ(got.sim_ns, row.expected.sim_ns) << row.name;
  }
}

}  // namespace
}  // namespace bx
