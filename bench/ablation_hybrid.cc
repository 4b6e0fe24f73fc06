// Ablation — hybrid threshold sweep (§4.2's suggested optimization).
//
// ByteExpress + PRP with threshold-based switching — kAuto with no policy
// attached: payloads at or below NvmeDriver::Config::hybrid_threshold_bytes
// go inline, larger ones use PRP. This sweeps the threshold
// and reports mean latency over a MixGraph-like payload mix, locating the
// optimum near the ByteExpress/PRP crossover (~256 B).
#include <cstdio>

#include "bench_common.h"

using namespace bx;         // NOLINT(google-build-using-namespace)
using namespace bx::bench;  // NOLINT(google-build-using-namespace)

int main(int argc, char** argv) {
  const BenchEnv env = BenchEnv::from_args(argc, argv);
  print_banner(env,
               "Ablation — hybrid ByteExpress/PRP switching threshold",
               "§4.2 'threshold-based switching mechanism' (not a paper "
               "figure)");

  // Pre-draw a payload-size mix so every threshold sees identical work.
  workload::MixGraphWorkload mixgraph({.value_max = 8192, .seed = 3});
  std::vector<std::uint32_t> sizes;
  sizes.reserve(env.ops);
  for (std::uint64_t i = 0; i < env.ops; ++i) {
    sizes.push_back(static_cast<std::uint32_t>(mixgraph.next_value_size()));
  }

  std::printf("%-12s %-14s %-14s %s\n", "threshold", "mean ns/op",
              "wire B/op", "inline share");
  for (const std::uint32_t threshold :
       {0u, 64u, 128u, 256u, 512u, 1024u, 4096u}) {
    auto config = env.testbed_config();
    config.driver.hybrid_threshold_bytes = threshold;
    core::Testbed testbed(config);

    std::uint64_t inline_ops = 0;
    LatencyHistogram latency;
    testbed.reset_counters();
    ByteVec payload(8192);
    for (const std::uint32_t size : sizes) {
      fill_pattern(ByteSpan{payload.data(), size}, size);
      auto completion =
          testbed.raw_write(ConstByteSpan{payload.data(), size},
                            driver::TransferMethod::kAuto);
      BX_ASSERT(completion.is_ok() && completion->ok());
      latency.record(completion->latency_ns);
      if (size <= threshold) ++inline_ops;
    }
    std::printf("%-12u %-14.0f %-14.1f %.1f%%\n", threshold,
                latency.mean(),
                double(testbed.traffic().total_wire_bytes()) /
                    double(sizes.size()),
                100.0 * double(inline_ops) / double(sizes.size()));
  }
  print_note("threshold 0 == pure PRP; the latency optimum sits near the "
             "~256 B crossover, traffic keeps improving further up");
  return 0;
}
