// Ablation — §3.3.2's load-distribution concern, quantified.
//
// Queue-local chunk fetching means a ByteExpress transaction holds the
// firmware's fetch engine until every chunk is in ("without switching
// queues mid-transaction"). A victim queue submitting tiny commands
// therefore waits behind whole transactions, not single entries. This
// measures victim latency while an aggressor queue streams large payloads
// under each method — the cost the paper's OOO future-work design would
// relieve.
#include <cstdio>
#include <string>
#include <utility>

#include "bench_common.h"

using namespace bx;         // NOLINT(google-build-using-namespace)
using namespace bx::bench;  // NOLINT(google-build-using-namespace)

namespace {

/// One measured run: `rounds` 64 B victim writes (plus any aggressor
/// traffic) from a counter reset on.
struct Run {
  core::RunStats stats;
  Nanoseconds start = 0;

  Run(core::Testbed& testbed, std::string label, std::uint64_t rounds) {
    testbed.reset_counters();
    stats.label = std::move(label);
    stats.ops = rounds;
    stats.payload_bytes = rounds * 64;
    start = testbed.clock().now();
  }

  /// Records the BENCH row: link traffic of both queues, elapsed sim
  /// time, and the victim's latency alone.
  void finish(core::Testbed& testbed) {
    const pcie::TrafficCell total = testbed.traffic().total();
    stats.wire_bytes = total.wire_bytes;
    stats.data_bytes = total.data_bytes;
    stats.total_time_ns = testbed.clock().now() - start;
    report_row(testbed, stats);
  }
};

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  print_banner(env,
               "Ablation — SQ arbitration interference: victim latency "
               "under an aggressor stream",
               "§3.3.2 'may affect load distribution' (not a paper "
               "figure)");

  const std::uint32_t aggressor_size = static_cast<std::uint32_t>(
      env.config.get_int("aggressor.size", 4096));
  const std::uint64_t rounds = env.ops / 4 + 1;

  std::printf("aggressor: %u B writes on queue 1; victim: 64 B writes on "
              "queue 2 (one victim per aggressor, interleaved)\n\n",
              aggressor_size);
  std::printf("%-18s %-16s %-16s %s\n", "aggressor method",
              "victim mean ns", "victim p99 ns", "victim solo = baseline");

  // Baseline: victim alone.
  double solo_mean = 0;
  {
    auto config = env.testbed_config();
    config.driver.io_queue_count = 2;
    core::Testbed testbed(config);
    ByteVec small(64);
    fill_pattern(small, 1);
    Run run(testbed, "solo", rounds);
    run.stats.method = driver::transfer_method_name(
        driver::TransferMethod::kByteExpress);
    LatencyHistogram& latency = run.stats.latency;
    for (std::uint64_t i = 0; i < rounds; ++i) {
      auto completion =
          testbed.raw_write(small, driver::TransferMethod::kByteExpress, 2);
      BX_ASSERT(completion.is_ok() && completion->ok());
      latency.record(completion->latency_ns);
    }
    run.finish(testbed);
    solo_mean = latency.mean();
    std::printf("%-18s %-16.0f %-16llu (baseline)\n", "(none)",
                latency.mean(),
                static_cast<unsigned long long>(latency.percentile(99)));
  }

  for (const driver::TransferMethod method :
       {driver::TransferMethod::kPrp, driver::TransferMethod::kBandSlim,
        driver::TransferMethod::kByteExpress}) {
    auto config = env.testbed_config();
    config.driver.io_queue_count = 2;
    core::Testbed testbed(config);
    ByteVec big(aggressor_size);
    fill_pattern(big, 2);
    ByteVec small(64);
    fill_pattern(small, 1);

    const std::string name(driver::transfer_method_name(method));
    Run run(testbed, "vs_" + name, rounds);
    run.stats.payload_bytes += rounds * aggressor_size;
    LatencyHistogram& victim_latency = run.stats.latency;
    for (std::uint64_t i = 0; i < rounds; ++i) {
      // Submit the aggressor asynchronously, then the victim: the victim
      // arrives while the aggressor's transaction is being fetched.
      driver::IoRequest aggressor;
      aggressor.opcode = nvme::IoOpcode::kVendorRawWrite;
      aggressor.method = method;
      aggressor.write_data = big;
      auto big_handle = testbed.driver().submit(aggressor, 1);
      BX_ASSERT(big_handle.is_ok());

      driver::IoRequest victim;
      victim.opcode = nvme::IoOpcode::kVendorRawWrite;
      victim.method = driver::TransferMethod::kByteExpress;
      victim.write_data = small;
      auto small_handle = testbed.driver().submit(victim, 2);
      BX_ASSERT(small_handle.is_ok());

      auto small_done = testbed.driver().wait(*small_handle);
      BX_ASSERT(small_done.is_ok() && small_done->ok());
      victim_latency.record(small_done->latency_ns);
      auto big_done = testbed.driver().wait(*big_handle);
      BX_ASSERT(big_done.is_ok() && big_done->ok());
    }
    run.finish(testbed);
    std::printf("%-18s %-16.0f %-16llu +%.0f%%\n", name.c_str(),
                victim_latency.mean(),
                static_cast<unsigned long long>(
                    victim_latency.percentile(99)),
                100.0 * (victim_latency.mean() / solo_mean - 1.0));
  }
  print_note("a ByteExpress aggressor holds the fetch engine for its whole "
             "chunk train (queue-local rule), so the victim waits out the "
             "entire transaction — the load-distribution cost §3.3.2 "
             "acknowledges and its OOO mechanism would relieve");
  print_note("BandSlim's host-side fragment serialization leaves gaps the "
             "victim slips into (near-zero interference), at the price of "
             "its own latency collapse; PRP sits between (the page DMA "
             "occupies the engine once)");
  return 0;
}
