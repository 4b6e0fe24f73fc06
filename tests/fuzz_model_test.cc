// Randomized full-stack model checking: long random operation sequences
// through the complete system (driver -> link -> controller -> SSD),
// validated against in-memory reference models. Each seed is an
// independent parameterized test; every operation randomizes the transfer
// method, so cross-method interactions (e.g. a BandSlim stream followed by
// an inline transaction on the same queue) get dense coverage.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "core/testbed.h"
#include "obs/invariants.h"
#include "test_util.h"
#include "workload/mixgraph.h"

namespace bx {
namespace {

using core::Testbed;
using driver::IoRequest;
using driver::TransferMethod;
using nvme::IoOpcode;

// Oracle: after any random schedule, the full command trace must satisfy
// every protocol invariant (doorbell-before-fetch, inline adjacency, one
// completion per CID, monotonic time). Strict options — these schedules
// are single-threaded and drain fully.
void expect_trace_invariants_hold(Testbed& testbed,
                                  const core::TestbedConfig& config) {
  const std::vector<obs::TraceEvent> events = testbed.trace().snapshot();
  ASSERT_FALSE(events.empty());
  obs::TraceCheckOptions options;
  options.queue_depth = config.driver.io_queue_depth;
  const obs::TraceCheckResult result =
      obs::check_trace_invariants(events, options);
  EXPECT_TRUE(result.ok()) << result.summary() << "\nfirst violations:\n"
                           << (result.violations.empty()
                                   ? std::string()
                                   : result.violations.front());
  EXPECT_EQ(result.submits, result.completions);
}

TransferMethod random_method(Rng& rng) {
  static constexpr TransferMethod kMethods[] = {
      TransferMethod::kPrp,           TransferMethod::kSgl,
      TransferMethod::kByteExpress,   TransferMethod::kByteExpressOoo,
      TransferMethod::kBandSlim,      TransferMethod::kAuto,
  };
  return kMethods[rng.next_below(std::size(kMethods))];
}

class FuzzSeed : public ::testing::TestWithParam<std::uint64_t> {};

// KV store under a random op mix vs std::map.
TEST_P(FuzzSeed, KvStoreMatchesReferenceModel) {
  Rng rng(GetParam());
  auto config = test::small_testbed_config();
  config.ssd.kv.flush_threshold_bytes = 16 * 1024;  // frequent flushes
  config.ssd.kv.max_runs = 3;                       // frequent compactions
  Testbed testbed(config);
  auto client = testbed.make_kv_client(TransferMethod::kPrp);

  std::map<std::string, ByteVec> reference;
  const int kOps = 800;
  const int kKeySpace = 60;

  for (int i = 0; i < kOps; ++i) {
    client.set_method(random_method(rng));
    const std::string key = workload::make_key(rng.next_below(kKeySpace));
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 55) {  // put
      ByteVec value(rng.next_in(1, 2000));
      rng.fill(value.data(), value.size());
      ASSERT_TRUE(client.put(key, value).is_ok()) << "op " << i;
      reference[key] = std::move(value);
    } else if (dice < 70) {  // delete
      auto deleted = client.del(key);
      ASSERT_TRUE(deleted.is_ok()) << "op " << i;
      EXPECT_EQ(*deleted, reference.erase(key) > 0) << "op " << i;
    } else if (dice < 85) {  // get
      auto got = client.get(key);
      const auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << "op " << i;
      } else {
        ASSERT_TRUE(got.is_ok()) << "op " << i;
        EXPECT_EQ(*got, it->second) << "op " << i;
      }
    } else if (dice < 95) {  // exist
      auto exists = client.exist(key);
      ASSERT_TRUE(exists.is_ok()) << "op " << i;
      EXPECT_EQ(*exists, reference.count(key) > 0) << "op " << i;
    } else {  // scan
      const std::uint32_t limit = 1 + std::uint32_t(rng.next_below(8));
      auto entries = client.scan(key, limit);
      ASSERT_TRUE(entries.is_ok()) << "op " << i;
      auto it = reference.lower_bound(key);
      for (const kv::KvEntry& entry : *entries) {
        ASSERT_NE(it, reference.end()) << "op " << i;
        EXPECT_EQ(entry.key, it->first) << "op " << i;
        EXPECT_EQ(entry.value, it->second) << "op " << i;
        ++it;
      }
      const std::size_t expected = std::min<std::size_t>(
          limit, std::size_t(std::distance(reference.lower_bound(key),
                                           reference.end())));
      EXPECT_EQ(entries->size(), expected) << "op " << i;
    }
  }

  // Full final audit.
  client.set_method(TransferMethod::kPrp);
  for (int id = 0; id < kKeySpace; ++id) {
    const std::string key = workload::make_key(std::uint64_t(id));
    auto got = client.get(key);
    const auto it = reference.find(key);
    if (it == reference.end()) {
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << key;
    } else {
      ASSERT_TRUE(got.is_ok()) << key;
      EXPECT_EQ(*got, it->second) << key;
    }
  }

  expect_trace_invariants_hold(testbed, config);
}

// Block namespace under random writes/reads vs a shadow array.
TEST_P(FuzzSeed, BlockNamespaceMatchesShadow) {
  Rng rng(GetParam() ^ 0xb10c);
  const auto config = test::small_testbed_config();
  Testbed testbed(config);
  const std::uint64_t lbas = 48;
  std::map<std::uint64_t, ByteVec> shadow;

  for (int i = 0; i < 150; ++i) {
    const std::uint64_t lba = rng.next_below(lbas);
    const std::uint32_t span =
        1 + static_cast<std::uint32_t>(rng.next_below(3));
    if (lba + span > lbas) continue;
    if (rng.next_bool(0.6)) {
      ByteVec data(span * 4096);
      rng.fill(data.data(), data.size());
      IoRequest write;
      write.opcode = IoOpcode::kWrite;
      write.slba = lba;
      write.block_count = span;
      write.write_data = data;
      write.method = rng.next_bool(0.5) ? TransferMethod::kPrp
                                        : TransferMethod::kByteExpress;
      auto completion = testbed.driver().execute(write, 1);
      ASSERT_TRUE(completion.is_ok() && completion->ok()) << "op " << i;
      for (std::uint32_t b = 0; b < span; ++b) {
        shadow[lba + b] = ByteVec(data.begin() + b * 4096,
                                  data.begin() + (b + 1) * 4096);
      }
    } else {
      ByteVec read_back(span * 4096);
      IoRequest read;
      read.opcode = IoOpcode::kRead;
      read.slba = lba;
      read.block_count = span;
      read.read_buffer = read_back;
      auto completion = testbed.driver().execute(read, 1);
      ASSERT_TRUE(completion.is_ok() && completion->ok()) << "op " << i;
      for (std::uint32_t b = 0; b < span; ++b) {
        const auto it = shadow.find(lba + b);
        const ConstByteSpan block =
            ConstByteSpan(read_back).subspan(b * 4096, 4096);
        if (it == shadow.end()) {
          for (const Byte byte : block) ASSERT_EQ(byte, 0) << "op " << i;
        } else {
          EXPECT_TRUE(std::equal(block.begin(), block.end(),
                                 it->second.begin()))
              << "op " << i << " lba " << lba + b;
        }
      }
    }
  }

  expect_trace_invariants_hold(testbed, config);
}

// Raw scratch last-writer-wins across random methods and sizes.
TEST_P(FuzzSeed, ScratchLastWriterWins) {
  Rng rng(GetParam() ^ 0x5c4a7c);
  const auto config = test::small_testbed_config();
  Testbed testbed(config);
  for (int i = 0; i < 120; ++i) {
    const std::uint32_t size =
        1 + static_cast<std::uint32_t>(rng.next_below(6000));
    ByteVec payload(size);
    rng.fill(payload.data(), payload.size());
    auto completion = testbed.raw_write(payload, random_method(rng));
    ASSERT_TRUE(completion.is_ok() && completion->ok())
        << "op " << i << " size " << size;

    ByteVec read_back(size);
    IoRequest read;
    read.opcode = IoOpcode::kVendorRawRead;
    read.read_buffer = read_back;
    auto verify = testbed.driver().execute(read, 1);
    ASSERT_TRUE(verify.is_ok() && verify->ok()) << "op " << i;
    ASSERT_EQ(verify->bytes_returned, size) << "op " << i;
    EXPECT_EQ(read_back, payload) << "op " << i;
  }

  expect_trace_invariants_hold(testbed, config);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace bx
