// End-to-end and per-layer benchmark of the ByteExpress simulator, driven
// only through the library's public API.
//
//   perfbench --workload kv_churn|kv_get|raw_batch|raw_threads --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// A run repeats fixed-size rounds until S seconds of measurement have
// passed. Each round builds a fresh Testbed with the shipped observability
// defaults (trace and telemetry on), generates its inputs from the seed,
// and issues a fixed number of closed-loop ops, so every simulated result
// of a single-threaded round is a pure function of the seed. The
// end-to-end metrics are medians over the rounds. Host times are scaled
// by the host's speed during the round, measured with a fixed reference
// kernel (calib.h).
//
// With --trace 1 the run installs its own pump (probe.h), alternates traced
// and untraced blocks of ops, and reports per-layer metrics instead of the
// end-to-end ones; the traced spans of the first ops are written to
// --trace-out as Chrome trace_event JSON.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every op whose status is not OK, whose completion is an error, whose
// latency breakdown does not add up, or whose GET does not return the
// key's last acknowledged value counts as failed. `correct` is false only
// when the run itself cannot be trusted: a failed setup, a round whose
// simulated digest differs from the first round's, or a raw write whose
// data did not reach the device.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "calib.h"
#include "core/testbed.h"
#include "obs/attribution.h"
#include "probe.h"

namespace perfbench {
namespace {

using bx::ByteVec;
using bx::ConstByteSpan;
using bx::core::Testbed;
using bx::core::TestbedConfig;
using bx::driver::Completion;
using bx::driver::IoRequest;
using bx::driver::TransferMethod;

// ---- workload sizing -------------------------------------------------

// kv_churn: MixGraph value sizes over a 65 536-key space, preloaded, then
// 80 % PUT / 20 % GET. The live set (~3.5 MB) exceeds the 1 MiB memtable,
// and the churn writes the live set over many times, so reclamation runs
// through several compaction cycles.
constexpr std::uint32_t kKvKeys = 65'536;
constexpr std::uint64_t kKvChurnOps = 400'000;
constexpr double kKvPutShare = 0.80;
constexpr double kGpShape = 0.2615;  // db_bench MixGraph value model
constexpr double kGpScale = 25.45;
constexpr std::uint32_t kKvMaxValue = 4'000;
// kv_get: the same preloaded keys, then GETs only. Without PUTs nothing is
// flushed or compacted, so the KV read path and NAND reads are measured
// apart from reclamation.
constexpr std::uint64_t kKvGetOps = 100'000;

// raw_batch: log-uniform 16 B .. 16 KiB vendor raw writes, kAuto, in
// batches of 8 through execute_batch on one queue.
constexpr std::uint64_t kRawBatchOps = 100'000;
constexpr std::uint32_t kBatch = 8;
constexpr double kRawMinBytes = 16.0;
constexpr double kRawMaxBytes = 16'384.0;

// raw_threads: 4 submitters, 64 B ByteExpress raw writes at QD1, one I/O
// queue each.
constexpr std::uint32_t kThreads = 4;
constexpr std::uint64_t kRawThreadOpsPerThread = 25'000;
constexpr std::uint32_t kRawThreadBytes = 64;

// A kv_churn round stops issuing ops this long after the run started, so a
// device that has stopped accepting PUTs (every PUT then costs
// milliseconds of host time) cannot push the run past its time limit.
constexpr double kKvDeadlineS = 120.0;
// Every run sets up at least this many times, so setup_s is a median.
constexpr std::size_t kMinSetups = 3;
// Traced and untraced blocks of this many ops alternate in a traced run.
constexpr std::uint64_t kBlockOps = 256;
// Single-threaded rounds time the calibration reference once every this
// many ops (before the first, and between ops after that).
constexpr std::uint64_t kCalibrateEvery = 8'192;
// Reference samples taken after each set-up, to calibrate its time.
constexpr int kSetupSamples = 3;
// Spans of this many traced ops per thread go to the Chrome trace.
constexpr std::uint64_t kSpanOps = 2'000;
// Random bytes every payload is sliced from.
constexpr std::size_t kPoolBytes = (1u << 20) + 16'384;

// ---- seeded inputs ---------------------------------------------------

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

ByteVec make_pool(std::uint64_t seed) {
  SplitMix64 rng(seed ^ 0x706f6f6cULL);
  ByteVec pool(kPoolBytes);
  for (std::size_t i = 0; i + 8 <= pool.size(); i += 8) {
    const std::uint64_t word = rng.next();
    std::memcpy(pool.data() + i, &word, 8);
  }
  return pool;
}

/// A payload: `len` bytes of the pool starting at `off`.
struct Slice {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
};

Slice random_slice(SplitMix64& rng, std::uint32_t len) {
  return {static_cast<std::uint32_t>(rng.below(kPoolBytes - len + 1)), len};
}

ConstByteSpan view(const ByteVec& pool, Slice s) {
  return {pool.data() + s.off, s.len};
}

/// Generalized-Pareto value size (MixGraph defaults), clamped to a page.
std::uint32_t mixgraph_size(SplitMix64& rng) {
  const double u = rng.unit();
  const double x = kGpScale * (std::pow(1.0 - u, -kGpShape) - 1.0) / kGpShape;
  const double clamped = std::clamp(std::ceil(x), 1.0, double{kKvMaxValue});
  return static_cast<std::uint32_t>(clamped);
}

std::uint32_t log_uniform_size(SplitMix64& rng) {
  const double lo = std::log(kRawMinBytes);
  const double hi = std::log(kRawMaxBytes);
  const double v = std::exp(lo + (hi - lo) * rng.unit());
  return static_cast<std::uint32_t>(
      std::clamp(std::round(v), kRawMinBytes, kRawMaxBytes));
}

// ---- counters read from the layers' public getters -------------------

enum Ctr : std::size_t {
  kSimNs,
  kWireDown, kWireUp, kTlpsDown, kTlpsUp,
  kDrvCommands, kDrvDoorbells, kDrvRetries, kDrvTimeouts, kDrvFallbackPrp,
  kDrvInlineReads,
  kPolInline, kPolDma, kPolSwitches, kPolRejects,
  kCtlChunks,
  kNandPrograms, kNandReads, kNandErases, kFtlGcRuns,
  kKvPuts, kKvGets, kKvFlushes, kKvCompactions,
  kTraceEvents, kTraceDropped,
  kCtrCount,
};

using Counters = std::array<std::uint64_t, kCtrCount>;

Counters read_counters(Testbed& tb) {
  const auto& m = tb.metrics();
  const auto down = tb.traffic().total(bx::pcie::Direction::kDownstream);
  const auto up = tb.traffic().total(bx::pcie::Direction::kUpstream);
  auto& ssd = tb.device();
  Counters c{};
  c[kSimNs] = tb.clock().now();
  c[kWireDown] = down.wire_bytes;
  c[kWireUp] = up.wire_bytes;
  c[kTlpsDown] = down.tlps;
  c[kTlpsUp] = up.tlps;
  c[kDrvCommands] = m.counter_value("driver.commands");
  c[kDrvDoorbells] = m.counter_value("driver.sq_doorbells");
  c[kDrvRetries] = m.counter_value("driver.retries");
  c[kDrvTimeouts] = m.counter_value("driver.timeouts");
  c[kDrvFallbackPrp] = m.counter_value("driver.inline_fallback_prp");
  c[kDrvInlineReads] = m.counter_value("driver.inline_read.completions");
  c[kPolInline] = m.counter_value("policy.decisions.inline");
  c[kPolDma] = m.counter_value("policy.decisions.dma");
  c[kPolSwitches] = m.counter_value("policy.mode_switches");
  c[kPolRejects] = m.counter_value("policy.rejects");
  c[kCtlChunks] = tb.controller().chunks_fetched();
  c[kNandPrograms] = ssd.nand().programs();
  c[kNandReads] = ssd.nand().reads();
  c[kNandErases] = ssd.nand().erases();
  c[kFtlGcRuns] = ssd.ftl().gc_runs();
  c[kKvPuts] = ssd.kv_engine().puts();
  c[kKvGets] = ssd.kv_engine().gets();
  c[kKvFlushes] = ssd.kv_engine().flushes();
  c[kKvCompactions] = ssd.kv_engine().compactions();
  c[kTraceEvents] = tb.trace().events_recorded();
  c[kTraceDropped] = tb.trace().dropped();
  return c;
}

// ---- per-thread op accounting ----------------------------------------

double percentile(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(rank + 0.5));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// What one thread's ops produced. Merged across threads and rounds.
struct Tally {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t puts = 0, puts_failed = 0;
  std::uint64_t gets = 0, gets_lost = 0;
  std::uint64_t acked_user_bytes = 0;  // key + value of acknowledged PUTs
  std::uint64_t payload_bytes = 0;     // values written and read
  std::vector<std::uint64_t> host_ns;  // wall time per op
  std::vector<std::uint64_t> sim_ns;   // Completion::latency_ns per op
  std::array<std::uint64_t, bx::obs::kWaitSegmentCount> wait_ns{};
  std::uint64_t traced_ns = 0, traced_ops = 0;
  std::uint64_t untraced_ns = 0, untraced_ops = 0;
  std::vector<std::string> errors;  // first few failure messages

  void note_error(std::string message) {
    if (errors.size() < 5) errors.push_back(std::move(message));
  }

  /// Checks one completion: device status and breakdown additivity.
  /// Records its simulated latency and wait segments. True if healthy.
  bool check_completion(const Completion& c) {
    sim_ns.push_back(c.latency_ns);
    for (std::size_t s = 0; s < wait_ns.size(); ++s) {
      wait_ns[s] += c.breakdown.ns[s];
    }
    const std::string additivity =
        bx::obs::check_breakdown_additivity(c.breakdown, c.latency_ns);
    if (!additivity.empty()) {
      note_error("breakdown: " + additivity);
      return false;
    }
    return c.ok();
  }

  /// Books one timed call covering `ops_in_call` ops.
  void book(std::uint64_t ns, std::uint64_t ops_in_call, bool traced_block) {
    for (std::uint64_t i = 0; i < ops_in_call; ++i) host_ns.push_back(ns);
    ops += ops_in_call;
    (traced_block ? traced_ns : untraced_ns) += ns;
    (traced_block ? traced_ops : untraced_ops) += ops_in_call;
  }

  void merge(Tally&& other) {
    ops += other.ops;
    failed += other.failed;
    puts += other.puts;
    puts_failed += other.puts_failed;
    gets += other.gets;
    gets_lost += other.gets_lost;
    acked_user_bytes += other.acked_user_bytes;
    payload_bytes += other.payload_bytes;
    host_ns.insert(host_ns.end(), other.host_ns.begin(), other.host_ns.end());
    sim_ns.insert(sim_ns.end(), other.sim_ns.begin(), other.sim_ns.end());
    other.host_ns = {};
    other.sim_ns = {};
    for (std::size_t s = 0; s < wait_ns.size(); ++s) {
      wait_ns[s] += other.wait_ns[s];
    }
    traced_ns += other.traced_ns;
    traced_ops += other.traced_ops;
    untraced_ns += other.untraced_ns;
    untraced_ops += other.untraced_ops;
    for (auto& e : other.errors) note_error(std::move(e));
  }
};

/// Whether op `i` of a thread falls in a traced block.
bool traced_block(bool trace, std::uint64_t i) {
  return trace && (i / kBlockOps) % 2 == 1;
}

// ---- the run ---------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// FNV-1a over 64-bit words: the simulated-statistics fingerprint.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(wall_ns() - start_ns) / 1e9;
}

struct Run {
  Args args;
  bool correct = true;
  std::vector<std::string> problems;
  std::vector<double> setup_s;
  // End-to-end values of each round; the run reports their medians.
  // Host times are calibrated (calib.h); the uncalibrated throughput and
  // each round's scale are printed for people.
  std::vector<double> host_kops, host_p50, host_p99, wall_kops, scales;
  std::vector<double> sim_kops, sim_p50, sim_p99, fail_ratio;
  std::uint64_t rounds = 0;
  std::uint64_t start_ns = 0;
  Counters delta{};  // counter deltas over the measured loops
  // End-of-round gauges, summed over rounds.
  double kv_runs = 0, ftl_waf = 0;
  double page_bytes = 0;
  bx::LatencyHistogram fetch_hist;
  Tally tally;
  std::vector<std::unique_ptr<Probe>> probes;
  std::uint64_t first_digest = 0;
  bool have_digest = false;
  /// A kv_churn round hit kKvDeadlineS and issued fewer ops than planned.
  bool truncated = false;

  void problem(std::string p) {
    correct = false;
    if (problems.size() < 5) problems.push_back(std::move(p));
  }

  Probe* probe_for(std::uint32_t thread) {
    if (!args.trace) return nullptr;
    while (probes.size() <= thread) {
      auto p = std::make_unique<Probe>();
      p->thread = static_cast<std::uint32_t>(probes.size());
      p->span_budget = kSpanOps;
      probes.push_back(std::move(p));
    }
    return probes[thread].get();
  }

  /// Records one set-up that started at `start_ns`, in calibrated seconds.
  void finish_setup(std::uint64_t start_ns) {
    const double wall_s = seconds_since(start_ns);
    Calibration cal;
    for (int i = 0; i < kSetupSamples; ++i) cal.sample();
    setup_s.push_back(wall_s * cal.scale());
  }

  /// Folds one round's counters and tallies into the run. `loop_s` is the
  /// wall time of the round's ops; `cal` holds the reference samples taken
  /// during the round, and scales its host times.
  void finish_round(Testbed& tb, const Counters& before, double loop_s,
                    const Calibration& cal, Tally&& round_tally) {
    const Counters after = read_counters(tb);
    for (std::size_t i = 0; i < kCtrCount; ++i) {
      delta[i] += after[i] - before[i];
    }
    const double ops = static_cast<double>(round_tally.ops);
    const double sim_s =
        static_cast<double>(after[kSimNs] - before[kSimNs]) / 1e9;
    const double scale = cal.scale();
    scales.push_back(scale);
    wall_kops.push_back(ops / loop_s / 1e3);
    host_kops.push_back(ops / (loop_s * scale) / 1e3);
    sim_kops.push_back(sim_s > 0 ? ops / sim_s / 1e3 : 0.0);
    host_p50.push_back(percentile(round_tally.host_ns, 50) * scale / 1e3);
    host_p99.push_back(percentile(round_tally.host_ns, 99) * scale / 1e3);
    sim_p50.push_back(percentile(round_tally.sim_ns, 50) / 1e3);
    sim_p99.push_back(percentile(round_tally.sim_ns, 99) / 1e3);
    // Add-one estimate of the failure rate: never 0, so it compares by
    // ratio; a round without failures reads 1 / (ops + 1).
    fail_ratio.push_back(static_cast<double>(round_tally.failed + 1) /
                         (ops + 1));
    kv_runs += static_cast<double>(tb.device().kv_engine().run_count());
    ftl_waf += tb.device().ftl().waf();
    page_bytes = tb.device().nand().geometry().page_size;
    fetch_hist.merge(tb.controller().fetch_stage_histogram());
    ++rounds;

    if (args.workload != "raw_threads") {
      // Deterministic simulated statistics of the round.
      std::vector<std::uint64_t> sorted = round_tally.sim_ns;
      std::sort(sorted.begin(), sorted.end());
      Digest d;
      for (const std::uint64_t v : sorted) d.add(v);
      for (std::size_t i = 0; i < kCtrCount; ++i) {
        if (i == kTraceEvents || i == kTraceDropped) continue;
        d.add(after[i] - before[i]);
      }
      d.add(round_tally.failed);
      d.add(tb.device().kv_engine().run_count());
      if (!have_digest) {
        first_digest = d.value();
        have_digest = true;
      } else if (d.value() != first_digest) {
        problem("round " + std::to_string(rounds) +
                " simulated digest differs from round 1");
      }
    }
    round_tally.host_ns = {};
    round_tally.sim_ns = {};
    tally.merge(std::move(round_tally));
  }
};

TestbedConfig small_geometry() {
  TestbedConfig config;  // shipped defaults: trace + telemetry on
  config.ssd.geometry.channels = 2;
  config.ssd.geometry.ways = 2;
  config.ssd.geometry.blocks_per_die = 64;
  config.ssd.geometry.pages_per_block = 64;
  return config;
}

/// After a round's loop: reads back the device's scratch buffer with a
/// raw read and compares it with the last payload(s) written. Raw writes
/// land in one shared scratch buffer, so the read must match one of the
/// candidates (the last write of each submitter).
void verify_scratch(Run& run, Testbed& tb,
                    const std::vector<ConstByteSpan>& candidates) {
  std::size_t len = 0;
  for (const auto& c : candidates) len = std::max(len, c.size());
  ByteVec buffer(len);
  IoRequest request;
  request.opcode = bx::nvme::IoOpcode::kVendorRawRead;
  request.method = TransferMethod::kPrp;
  request.read_buffer = buffer;
  auto completion = tb.driver().execute(request, 1);
  if (!completion.is_ok() || !completion->ok()) {
    run.problem("raw read-back failed");
    return;
  }
  for (const auto& c : candidates) {
    if (c.size() <= completion->bytes_returned &&
        std::equal(c.begin(), c.end(), buffer.begin())) {
      return;
    }
  }
  run.problem("raw read-back does not match the last write");
}

// ---- kv_churn and kv_get ----------------------------------------------

struct KvOpSpec {
  bool put = false;
  std::uint32_t key = 0;
  Slice value;
};

/// Host-side shadow of one key: the last acknowledged value, plus every
/// value whose PUT failed since (the device may hold any of them).
struct Shadow {
  Slice acked;
  bool has_acked = false;
  std::vector<Slice> failed;
};

struct KvState {
  ByteVec pool;
  std::vector<std::string> keys;
  std::vector<Shadow> shadow;
  std::vector<KvOpSpec> ops;
};

std::string make_key(std::uint64_t seed, std::uint32_t id) {
  SplitMix64 mix(seed * 0x10001ULL + id);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(mix.next()));
  return {buf, 16};
}

/// True if the KvClient status means a completion was produced (so
/// last_completion() belongs to this call).
bool has_completion(const bx::Status& status) {
  return status.is_ok() || status.code() == bx::StatusCode::kNotFound ||
         status.message().find("device status") != std::string::npos;
}

/// kv_churn and kv_get: one KvClient at QD1 over preloaded keys.
void run_kv(Run& run, bool setup_only) {
  const bool churn = run.args.workload == "kv_churn";
  const std::uint64_t op_count = churn ? kKvChurnOps : kKvGetOps;
  const double put_share = churn ? kKvPutShare : 0.0;
  // Setup: inputs, testbed, preload of every key.
  const std::uint64_t setup_start = wall_ns();
  KvState st;
  st.pool = make_pool(run.args.seed);
  SplitMix64 rng(run.args.seed);
  st.keys.reserve(kKvKeys);
  for (std::uint32_t k = 0; k < kKvKeys; ++k) {
    st.keys.push_back(make_key(run.args.seed, k));
  }
  st.shadow.resize(kKvKeys);
  std::vector<Slice> preload(kKvKeys);
  for (auto& s : preload) s = random_slice(rng, mixgraph_size(rng));
  st.ops.resize(op_count);
  for (auto& op : st.ops) {
    op.put = rng.unit() < put_share;
    op.key = static_cast<std::uint32_t>(rng.below(kKvKeys));
    if (op.put) op.value = random_slice(rng, mixgraph_size(rng));
  }
  auto tb = std::make_unique<Testbed>(small_geometry());
  auto client = tb->make_kv_client(TransferMethod::kByteExpress);
  for (std::uint32_t k = 0; k < kKvKeys; ++k) {
    const bx::Status s = client.put(st.keys[k], view(st.pool, preload[k]));
    if (!s.is_ok()) {
      run.problem("preload PUT failed: " + s.to_string());
      st.shadow[k].failed.push_back(preload[k]);
      continue;
    }
    st.shadow[k].acked = preload[k];
    st.shadow[k].has_acked = true;
  }
  run.finish_setup(setup_start);
  if (setup_only) return;

  std::mutex pump_lock;
  Probe* probe = run.probe_for(0);
  if (run.args.trace) install_traced_pump(*tb, pump_lock);
  bind_probe(probe);
  tb->controller().reset_fetch_stats();
  Tally t;
  t.host_ns.reserve(op_count);
  t.sim_ns.reserve(op_count);
  Calibration cal;
  const Counters before = read_counters(*tb);
  const std::uint64_t loop_start = wall_ns();
  const std::uint64_t deadline =
      run.start_ns + static_cast<std::uint64_t>(kKvDeadlineS * 1e9);
  for (std::uint64_t i = 0; i < st.ops.size(); ++i) {
    if (i % 1024 == 0 && wall_ns() > deadline) {
      run.truncated = true;
      break;
    }
    if (i % kCalibrateEvery == 0) cal.sample();
    const KvOpSpec& op = st.ops[i];
    const bool traced = traced_block(run.args.trace, i);
    if (probe != nullptr) probe->traced = traced;
    const std::string& key = st.keys[op.key];
    Shadow& sh = st.shadow[op.key];
    if (op.put) {
      OpScope scope(probe);
      const bx::Status s = client.put(key, view(st.pool, op.value));
      const std::uint64_t ns = scope.finish();
      t.book(ns, 1, traced);
      ++t.puts;
      t.payload_bytes += op.value.len;
      bool ok = s.is_ok();
      if (has_completion(s)) {
        ok = t.check_completion(client.last_completion()) && ok;
      }
      if (ok) {
        sh.acked = op.value;
        sh.has_acked = true;
        sh.failed.clear();
        t.acked_user_bytes += key.size() + op.value.len;
      } else {
        ++t.failed;
        ++t.puts_failed;
        sh.failed.push_back(op.value);
        t.note_error("PUT: " + s.to_string());
      }
      continue;
    }
    OpScope scope(probe);
    auto got = client.get(key);
    const std::uint64_t ns = scope.finish();
    t.book(ns, 1, traced);
    ++t.gets;
    bool ok = got.is_ok();
    if (has_completion(got.status())) {
      ok = t.check_completion(client.last_completion()) && ok;
    }
    if (ok) {
      const ByteVec& value = got.value();
      t.payload_bytes += value.size();
      auto matches = [&](Slice s) {
        const ConstByteSpan want = view(st.pool, s);
        return value.size() == want.size() &&
               std::equal(want.begin(), want.end(), value.begin());
      };
      ok = (sh.has_acked && matches(sh.acked)) ||
           std::any_of(sh.failed.begin(), sh.failed.end(), matches);
      if (!ok) t.note_error("GET returned a value never written for its key");
    } else {
      t.note_error("GET: " + got.status().to_string());
    }
    if (!ok) {
      ++t.failed;
      ++t.gets_lost;
    }
  }
  const double loop_s = seconds_since(loop_start) - cal.spent_ns() / 1e9;
  bind_probe(nullptr);
  run.finish_round(*tb, before, loop_s, cal, std::move(t));
}

// ---- raw_batch --------------------------------------------------------

void run_raw_batch(Run& run, bool setup_only) {
  const std::uint64_t setup_start = wall_ns();
  const ByteVec pool = make_pool(run.args.seed);
  SplitMix64 rng(run.args.seed);
  std::vector<IoRequest> requests(kRawBatchOps);
  for (auto& r : requests) {
    r.opcode = bx::nvme::IoOpcode::kVendorRawWrite;
    r.method = TransferMethod::kAuto;
    r.write_data = view(pool, random_slice(rng, log_uniform_size(rng)));
  }
  TestbedConfig config = small_geometry();
  config.policy_enabled = true;
  auto tb = std::make_unique<Testbed>(config);
  run.finish_setup(setup_start);
  if (setup_only) return;

  std::mutex pump_lock;
  Probe* probe = run.probe_for(0);
  if (run.args.trace) install_traced_pump(*tb, pump_lock);
  bind_probe(probe);
  tb->controller().reset_fetch_stats();
  Tally t;
  t.host_ns.reserve(kRawBatchOps);
  t.sim_ns.reserve(kRawBatchOps);
  Calibration cal;
  const Counters before = read_counters(*tb);
  const std::uint64_t loop_start = wall_ns();
  for (std::uint64_t i = 0; i < kRawBatchOps; i += kBatch) {
    if (i % kCalibrateEvery == 0) cal.sample();
    const std::span<const IoRequest> batch(requests.data() + i, kBatch);
    const bool traced = traced_block(run.args.trace, i);
    if (probe != nullptr) probe->traced = traced;
    OpScope scope(probe);
    auto completions = tb->driver().execute_batch(batch, 1);
    const std::uint64_t ns = scope.finish();
    t.book(ns, kBatch, traced);
    if (!completions.is_ok() || completions->size() != kBatch) {
      t.failed += kBatch;
      t.note_error("execute_batch: " + completions.status().to_string());
      continue;
    }
    for (std::uint32_t k = 0; k < kBatch; ++k) {
      t.payload_bytes += batch[k].write_data.size();
      if (!t.check_completion((*completions)[k])) {
        ++t.failed;
        t.note_error("raw write completed with an error status");
      }
    }
  }
  const double loop_s = seconds_since(loop_start) - cal.spent_ns() / 1e9;
  bind_probe(nullptr);
  run.finish_round(*tb, before, loop_s, cal, std::move(t));
  verify_scratch(run, *tb, {requests.back().write_data});
}

// ---- raw_threads ------------------------------------------------------

void run_raw_threads(Run& run, bool setup_only) {
  const std::uint64_t setup_start = wall_ns();
  const ByteVec pool = make_pool(run.args.seed);
  std::vector<std::vector<Slice>> payloads(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    SplitMix64 rng(run.args.seed + 0x1000ULL * (t + 1));
    payloads[t].resize(kRawThreadOpsPerThread);
    for (auto& s : payloads[t]) s = random_slice(rng, kRawThreadBytes);
  }
  TestbedConfig config = small_geometry();
  config.driver.io_queue_count = kThreads;
  auto tb = std::make_unique<Testbed>(config);
  run.finish_setup(setup_start);
  if (setup_only) return;

  std::mutex pump_lock;
  if (run.args.trace) install_traced_pump(*tb, pump_lock);
  for (std::uint32_t t = 0; t < kThreads; ++t) run.probe_for(t);
  tb->controller().reset_fetch_stats();
  std::vector<Tally> tallies(kThreads);
  for (auto& t : tallies) {
    t.host_ns.reserve(kRawThreadOpsPerThread);
    t.sim_ns.reserve(kRawThreadOpsPerThread);
  }
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  // The submitters cannot pause together, so the reference is timed just
  // before and just after the round instead of between its ops.
  Calibration cal;
  for (int i = 0; i < kSetupSamples; ++i) cal.sample();
  const Counters before = read_counters(*tb);
  std::uint64_t loop_start = 0;
  {
    std::vector<std::jthread> threads;
    // If a thread cannot be started, release the ones already waiting so
    // that the jthread destructors can join them.
    struct Release {
      std::atomic<bool>& go;
      ~Release() { go.store(true, std::memory_order_release); }
    } release{go};
    for (std::uint32_t w = 0; w < kThreads; ++w) {
      threads.emplace_back([&, w] {
        Probe* probe = run.args.trace ? run.probes[w].get() : nullptr;
        bind_probe(probe);
        Tally& t = tallies[w];
        const auto qid = static_cast<std::uint16_t>(w + 1);
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (std::uint64_t i = 0; i < kRawThreadOpsPerThread; ++i) {
          const bool traced = traced_block(run.args.trace, i);
          if (probe != nullptr) probe->traced = traced;
          const ConstByteSpan payload = view(pool, payloads[w][i]);
          OpScope scope(probe);
          auto completion =
              tb->raw_write(payload, TransferMethod::kByteExpress, qid);
          const std::uint64_t ns = scope.finish();
          t.book(ns, 1, traced);
          t.payload_bytes += payload.size();
          if (!completion.is_ok()) {
            ++t.failed;
            t.note_error("raw_write: " + completion.status().to_string());
          } else if (!t.check_completion(*completion)) {
            ++t.failed;
            t.note_error("raw write completed with an error status");
          }
        }
        bind_probe(nullptr);
      });
    }
    while (ready.load() < kThreads) std::this_thread::yield();
    loop_start = wall_ns();
  }  // `release` starts the submitters; the jthreads then join
  const double loop_s = seconds_since(loop_start);
  for (int i = 0; i < kSetupSamples; ++i) cal.sample();
  Tally merged;
  for (auto& t : tallies) merged.merge(std::move(t));
  run.finish_round(*tb, before, loop_s, cal, std::move(merged));
  std::vector<ConstByteSpan> last;
  for (std::uint32_t w = 0; w < kThreads; ++w) {
    last.push_back(view(pool, payloads[w].back()));
  }
  verify_scratch(run, *tb, last);
}

// ---- reporting --------------------------------------------------------

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> end_to_end(Run& run) {
  Tally& t = run.tally;
  const double ops = static_cast<double>(t.ops);
  const std::uint64_t wire = run.delta[kWireDown] + run.delta[kWireUp];
  return {
      {"setup_s", median(run.setup_s), "s"},
      {"host_kops", median(run.host_kops), "kops/s"},
      {"host_lat_p50_us", median(run.host_p50), "us"},
      {"host_lat_p99_us", median(run.host_p99), "us"},
      // Simulated time: deterministic for a seed, unlike the host clock.
      {"sim_kops", median(run.sim_kops), "kops/sim_s"},
      {"sim_lat_p50_us", median(run.sim_p50), "sim_us"},
      {"sim_lat_p99_us", median(run.sim_p99), "sim_us"},
      {"wire_bytes_per_op", ratio(static_cast<double>(wire), ops), "B"},
      {"fail_ratio", median(run.fail_ratio), "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(Run& run) {
  const Tally& t = run.tally;
  const Counters& d = run.delta;
  const double ops = static_cast<double>(t.ops);
  const double rounds =
      static_cast<double>(std::max<std::uint64_t>(run.rounds, 1));
  std::uint64_t traced_ops = 0, op_ns = 0, pump_ns = 0, poll_ns = 0,
                lock_ns = 0, polls = 0, idle = 0;
  AllocCounts allocs{};
  for (const auto& p : run.probes) {
    traced_ops += p->op_index;
    op_ns += p->op_ns;
    pump_ns += p->pump_ns;
    poll_ns += p->poll_ns;
    lock_ns += p->lock_wait_ns;
    polls += p->polls;
    idle += p->idle_polls;
    for (int k = 0; k < 3; ++k) allocs.by_kind[k] += p->allocs.by_kind[k];
  }
  // Traced spans count one call per op span; raw_batch calls cover a batch.
  const double per_call_ops = run.args.workload == "raw_batch" ? kBatch : 1.0;
  const double tops = static_cast<double>(traced_ops) * per_call_ops;
  const double per_round = 1.0 / rounds;
  // Traced spans are calibrated like the end-to-end host times, with the
  // median of the rounds' scales.
  const double scale = median(run.scales);
  const auto host_ns_per_op = [&](std::uint64_t ns) {
    return ratio(static_cast<double>(ns) * scale, tops);
  };
  std::vector<Metric> m = {
      {"driver.self_host_ns_per_op", host_ns_per_op(op_ns - pump_ns), "ns"},
      {"driver.commands_per_op", ratio(d[kDrvCommands], ops), "count"},
      {"driver.sq_doorbells_per_op", ratio(d[kDrvDoorbells], ops), "count"},
      {"driver.retries", d[kDrvRetries] * per_round, "count"},
      {"driver.timeouts", d[kDrvTimeouts] * per_round, "count"},
      {"driver.inline_fallback_prp", d[kDrvFallbackPrp] * per_round, "count"},
      {"driver.inline_read_share", ratio(d[kDrvInlineReads], t.gets), "ratio"},
      {"policy.inline_share",
       ratio(d[kPolInline], d[kPolInline] + d[kPolDma]), "ratio"},
      {"policy.mode_switches", d[kPolSwitches] * per_round, "count"},
      {"policy.rejects", d[kPolRejects] * per_round, "count"},
      {"pcie.wire_bytes_per_op.down", ratio(d[kWireDown], ops), "B"},
      {"pcie.wire_bytes_per_op.up", ratio(d[kWireUp], ops), "B"},
      {"pcie.tlps_per_op", ratio(d[kTlpsDown] + d[kTlpsUp], ops), "count"},
      {"pcie.payload_per_wire_byte",
       ratio(t.payload_bytes, d[kWireDown] + d[kWireUp]), "ratio"},
      {"controller.poll_host_ns_per_op", host_ns_per_op(poll_ns), "ns"},
      {"controller.polls_per_op", ratio(polls, tops), "count"},
      {"controller.idle_poll_ratio", ratio(idle, polls), "ratio"},
      {"controller.chunks_fetched_per_op", ratio(d[kCtlChunks], ops), "count"},
      {"controller.fetch_p50_ns",
       static_cast<double>(run.fetch_hist.percentile(50)), "sim_ns"},
      {"controller.lock_wait_ns_per_op", host_ns_per_op(lock_ns), "ns"},
  };
  for (std::size_t s = 0; s < bx::obs::kWaitSegmentCount; ++s) {
    m.push_back({"wait." +
                     std::string(bx::obs::wait_segment_name(
                         static_cast<bx::obs::WaitSegment>(s))) +
                     "_ns_per_op",
                 ratio(t.wait_ns[s], ops), "sim_ns"});
  }
  const std::vector<Metric> rest = {
      {"kv.flushes", d[kKvFlushes] * per_round, "count"},
      {"kv.compactions", d[kKvCompactions] * per_round, "count"},
      {"kv.runs", run.kv_runs * per_round, "count"},
      {"kv.put_failed_ratio", ratio(t.puts_failed, t.puts), "ratio"},
      {"kv.get_lost_ratio", ratio(t.gets_lost, t.gets), "ratio"},
      {"kv.nand_bytes_per_user_byte",
       ratio(d[kNandPrograms] * run.page_bytes, t.acked_user_bytes), "ratio"},
      {"nand.programs_per_op", ratio(d[kNandPrograms], ops), "count"},
      {"nand.reads_per_op", ratio(d[kNandReads], ops), "count"},
      {"nand.erases", d[kNandErases] * per_round, "count"},
      {"ftl.waf", run.ftl_waf * per_round, "ratio"},
      {"ftl.gc_runs", d[kFtlGcRuns] * per_round, "count"},
      {"obs.trace_events_per_op", ratio(d[kTraceEvents], ops), "count"},
      {"obs.trace_dropped", d[kTraceDropped] * per_round, "count"},
      {"host.allocs_per_op",
       ratio(allocs.by_kind[1] + allocs.by_kind[2], tops), "count"},
      {"host.allocs_per_op.driver", ratio(allocs.by_kind[1], tops), "count"},
      {"host.allocs_per_op.controller", ratio(allocs.by_kind[2], tops),
       "count"},
      {"trace_overhead_pct",
       100.0 * (ratio(ratio(t.traced_ns, t.traced_ops),
                      ratio(t.untraced_ns, t.untraced_ops)) - 1.0),
       "%"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1") {
        return false;
      }
      args.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (args.workload == "kv_churn" || args.workload == "kv_get" ||
          args.workload == "raw_batch" || args.workload == "raw_threads");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Run run;
  if (!parse_args(argc, argv, run.args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "kv_churn|kv_get|raw_batch|raw_threads --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  void (*round)(Run&, bool) =
      run.args.workload == "raw_batch"     ? run_raw_batch
      : run.args.workload == "raw_threads" ? run_raw_threads
                                           : run_kv;
  // One unmeasured round first: the first rounds of a process run slower
  // while the heap grows to its working size. A kv_churn round is long
  // enough to absorb that, and two of them could overrun the time limit.
  if (run.args.workload != "kv_churn") {
    Run warmup;
    warmup.args = run.args;
    warmup.args.trace = false;
    warmup.start_ns = wall_ns();
    round(warmup, false);
  }
  // Whole rounds only: stop before a round that would overrun the budget.
  run.start_ns = wall_ns();
  const std::uint64_t start = run.start_ns;
  double last_round_s = 0;
  do {
    const std::uint64_t round_start = wall_ns();
    round(run, false);
    last_round_s = seconds_since(round_start);
  } while (seconds_since(start) + last_round_s <= run.args.seconds);
  while (run.setup_s.size() < kMinSetups) round(run, true);

  std::printf("workload %s seed %llu rounds %llu ops %llu failed %llu\n",
              run.args.workload.c_str(),
              static_cast<unsigned long long>(run.args.seed),
              static_cast<unsigned long long>(run.rounds),
              static_cast<unsigned long long>(run.tally.ops),
              static_cast<unsigned long long>(run.tally.failed));
  if (run.truncated) {
    std::printf("kv_churn round stopped at the %.0f s deadline\n",
                kKvDeadlineS);
  }
  for (const auto& e : run.tally.errors) {
    std::printf("op error: %s\n", e.c_str());
  }
  for (const auto& p : run.problems) std::printf("problem: %s\n", p.c_str());
  if (run.have_digest) {
    std::printf("sim digest %s seed %llu: %016llx\n",
                run.args.workload.c_str(),
                static_cast<unsigned long long>(run.args.seed),
                static_cast<unsigned long long>(run.first_digest));
  }
  const std::vector<Metric> e2e = end_to_end(run);
  std::vector<Metric> layer;
  if (run.args.trace) layer = per_layer(run);
  for (const auto& m : e2e) {
    std::printf("%s%-34s %.6g %s\n", run.args.trace ? "traced " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s%-34s %.6g kops/s (median scale %.4g)\n",
              run.args.trace ? "traced " : "", "uncalibrated host_kops",
              median(run.wall_kops), median(run.scales));
  for (const auto& m : layer) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (run.args.trace && !run.args.trace_out.empty()) {
    std::vector<const Probe*> probes;
    for (const auto& p : run.probes) probes.push_back(p.get());
    if (!write_chrome_trace(run.args.trace_out, probes)) {
      run.problem("cannot write " + run.args.trace_out);
    }
  }

  std::string json = "{\"correct\": ";
  json += run.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.tally.ops);
  json += ", \"failed\": " + std::to_string(run.tally.failed);
  json += ", \"metrics\": {";
  const std::vector<Metric>& out = run.args.trace ? layer : e2e;
  for (std::size_t i = 0; i < out.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + out[i].name + "\": {\"value\": " +
            json_number(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
