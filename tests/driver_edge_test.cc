// Driver edge cases: detached operation (no device attached), wait() on
// bogus handles, request validation, and submit-stage accounting across
// methods.
#include <gtest/gtest.h>

#include "core/testbed.h"
#include "test_util.h"

namespace bx {
namespace {

using core::Testbed;
using driver::IoRequest;
using driver::NvmeDriver;
using driver::TransferMethod;
using nvme::IoOpcode;

TEST(DetachedDriverTest, InitWithoutDeviceFailsCleanly) {
  DmaMemory memory;
  SimClock clock;
  pcie::TrafficCounter traffic;
  pcie::PcieLink link(pcie::LinkConfig{}, clock, traffic);
  pcie::BarSpace bar(64);
  NvmeDriver driver(memory, link, bar, NvmeDriver::Config{});
  EXPECT_EQ(driver.init_io_queues().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(driver.identify_controller().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DriverEdgeTest, WaitOnUnknownCidFails) {
  Testbed testbed(test::small_testbed_config());
  driver::Submitted bogus;
  bogus.qid = 1;
  bogus.cid = 999;
  EXPECT_FALSE(testbed.driver().wait(bogus).is_ok());
}

TEST(DriverEdgeTest, ReadBufferGeometryValidated) {
  Testbed testbed(test::small_testbed_config());
  ByteVec short_buffer(4096);
  IoRequest read;
  read.opcode = IoOpcode::kRead;
  read.slba = 0;
  read.block_count = 2;
  read.read_buffer = short_buffer;  // needs 8192
  EXPECT_FALSE(testbed.driver().execute(read, 1).is_ok());
}

TEST(DriverEdgeTest, SubmitCostAccountingPerMethod) {
  Testbed testbed(test::small_testbed_config());
  const auto& timing = testbed.config().driver.timing;
  ByteVec payload(96);  // 2 inline chunks, 2 BandSlim fragments
  fill_pattern(payload, 1);

  ASSERT_TRUE(testbed.raw_write(payload, TransferMethod::kSgl).is_ok());
  EXPECT_EQ(testbed.driver().last_submit_cost(), timing.sqe_insert_ns);

  ASSERT_TRUE(
      testbed.raw_write(payload, TransferMethod::kByteExpress).is_ok());
  EXPECT_EQ(testbed.driver().last_submit_cost(),
            timing.sqe_insert_ns + 2 * timing.chunk_insert_ns);

  // BandSlim reports the LAST command's submit (each fragment is its own
  // SQ insert).
  ASSERT_TRUE(testbed.raw_write(payload, TransferMethod::kBandSlim).is_ok());
  EXPECT_EQ(testbed.driver().last_submit_cost(), timing.sqe_insert_ns);
}

TEST(DriverEdgeTest, ZeroLengthVendorWriteUsesNoDataPath) {
  Testbed testbed(test::small_testbed_config());
  testbed.reset_counters();
  IoRequest request;
  request.opcode = IoOpcode::kVendorRawWrite;
  request.method = TransferMethod::kByteExpress;  // resolves to PRP, len 0
  auto completion = testbed.driver().execute(request, 1);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
  // SQE(64) + CQE(16) + SQ/CQ doorbells(4+4) + MSI(4).
  EXPECT_EQ(testbed.traffic().total_data_bytes(), 92u);
}

TEST(DriverEdgeTest, HugePayloadBeyondInlineCapStillWorks) {
  Testbed testbed(test::small_testbed_config());
  ByteVec payload(64 * 1024);  // way past max_inline_bytes
  fill_pattern(payload, 9);
  auto completion =
      testbed.raw_write(payload, TransferMethod::kByteExpress);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
  // Arrived intact through the PRP fallback (chained PRP list: 16 pages).
  ByteVec read_back(payload.size());
  IoRequest read;
  read.opcode = IoOpcode::kVendorRawRead;
  read.read_buffer = read_back;
  auto verify = testbed.driver().execute(read, 1);
  ASSERT_TRUE(verify.is_ok() && verify->ok());
  EXPECT_EQ(read_back, payload);
}

TEST(DriverEdgeTest, InterleavedAsyncAcrossQueuesCompleteIndependently) {
  Testbed testbed(test::small_testbed_config(/*io_queues=*/2));
  ByteVec payload(64);
  fill_pattern(payload, 1);
  IoRequest request;
  request.opcode = IoOpcode::kVendorRawWrite;
  request.method = TransferMethod::kByteExpress;
  request.write_data = payload;

  auto h1 = testbed.driver().submit(request, 1);
  auto h2 = testbed.driver().submit(request, 2);
  auto h3 = testbed.driver().submit(request, 1);
  ASSERT_TRUE(h1.is_ok() && h2.is_ok() && h3.is_ok());
  // Reap out of submission order.
  EXPECT_TRUE(testbed.driver().wait(*h3)->ok());
  EXPECT_TRUE(testbed.driver().wait(*h1)->ok());
  EXPECT_TRUE(testbed.driver().wait(*h2)->ok());
}

// Regression: with a huge backoff base, `base << attempt` wrapped to zero
// at attempt 2 (2^62 << 2 mod 2^64 == 0) BEFORE the outer min with the
// cap, so retries 2+ slept 0 ns. The fixed code saturates the shift
// (base > cap >> shift  =>  cap), so every retry advances the clock by at
// least the cap.
TEST(DriverEdgeTest, RetryBackoffShiftSaturatesAtCap) {
  auto config = test::small_testbed_config();
  config.driver.retry_backoff_base_ns = std::uint64_t{1} << 62;
  config.driver.retry_backoff_cap_ns = 1'000'000;  // 1 ms
  config.driver.max_retries = 4;
  config.faults.error_retryable = 1e-9;  // constructs the injector
  Testbed testbed(config);
  ASSERT_NE(testbed.fault_injector(), nullptr);
  testbed.fault_injector()->arm(fault::FaultKind::kErrorRetryable, 3);

  ByteVec payload(64);
  fill_pattern(payload, 7);
  const Nanoseconds start = testbed.clock().now();
  auto completion = testbed.raw_write(payload, TransferMethod::kPrp);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
  // Three retryable faults -> three backoffs; the wrap bug slept only
  // once (attempt 1), so the elapsed floor distinguishes the two.
  EXPECT_GE(testbed.clock().now() - start,
            3u * config.driver.retry_backoff_cap_ns);
}

// Regression: a hybrid threshold (kAuto with no policy attached) above
// max_inline_bytes classified mid-size payloads as ByteExpress and then
// took the feasibility fallback, inflating driver.inline_fallback_prp on
// every such write.
// resolve_method now clamps the threshold to the inline cap first, so
// the payload resolves to PRP outright and the fallback counter stays a
// pure infeasibility signal.
TEST(DriverEdgeTest, HybridThresholdClampedToInlineCap) {
  auto config = test::small_testbed_config();
  config.driver.hybrid_threshold_bytes = 16'384;  // > max_inline_bytes
  Testbed testbed(config);
  ASSERT_EQ(testbed.method_policy(), nullptr);
  ASSERT_GT(config.driver.hybrid_threshold_bytes,
            config.driver.max_inline_bytes);

  // Inside the configured threshold, above the inline cap (8192).
  ByteVec payload(12'000);
  fill_pattern(payload, 3);
  auto completion = testbed.raw_write(payload, TransferMethod::kAuto);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
  EXPECT_EQ(testbed.metrics().counter_value("driver.inline_fallback_prp"),
            0u);

  // Payloads under the cap still go inline through the clamped cutoff
  // (2 chunk inserts on top of the SQE insert — the ByteExpress submit
  // signature).
  ByteVec small(128);
  fill_pattern(small, 4);
  ASSERT_TRUE(testbed.raw_write(small, TransferMethod::kAuto)->ok());
  const auto& timing = testbed.config().driver.timing;
  EXPECT_EQ(testbed.driver().last_submit_cost(),
            timing.sqe_insert_ns + 2 * timing.chunk_insert_ns);
}

}  // namespace
}  // namespace bx
