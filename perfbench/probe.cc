#include "probe.h"

#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// The span the calling thread is in, for the allocation split. kNone
// means "not counting": outside traced op spans nothing is counted.
thread_local int t_kind = static_cast<int>(SpanKind::kNone);
thread_local AllocCounts t_allocs;
thread_local Probe* t_probe = nullptr;

inline void count_alloc() noexcept {
  if (t_kind != 0) ++t_allocs.by_kind[t_kind];
}

void* checked_malloc(std::size_t size) {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* checked_aligned(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  std::size_t rounded = (size + a - 1) / a * a;
  if (rounded == 0) rounded = a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void bind_probe(Probe* probe) noexcept {
  if (t_probe != nullptr) {
    for (int k = 0; k < 3; ++k) {
      t_probe->allocs.by_kind[k] +=
          t_allocs.by_kind[k] - t_probe->allocs_at_bind.by_kind[k];
    }
  }
  t_probe = probe;
  if (probe != nullptr) probe->allocs_at_bind = t_allocs;
}

void install_traced_pump(bx::core::Testbed& testbed, std::mutex& lock) {
  bx::controller::Controller* controller = &testbed.controller();
  testbed.driver().set_pump([controller, &lock] {
    Probe* probe = t_probe;
    if (probe == nullptr || !probe->traced) {
      std::lock_guard<std::mutex> guard(lock);
      return controller->poll_once();
    }
    const std::uint64_t t0 = wall_ns();
    std::unique_lock<std::mutex> guard(lock);
    const std::uint64_t t1 = wall_ns();
    const int saved = t_kind;
    t_kind = static_cast<int>(SpanKind::kController);
    const bool progress = controller->poll_once();
    t_kind = saved;
    const std::uint64_t t2 = wall_ns();
    guard.unlock();
    probe->lock_wait_ns += t1 - t0;
    probe->poll_ns += t2 - t1;
    probe->pump_ns += t2 - t0;
    ++probe->polls;
    if (!progress) ++probe->idle_polls;
    if (probe->op_index < probe->span_budget) {
      // The export buffer's growth is the benchmark's, not the driver's.
      t_kind = static_cast<int>(SpanKind::kNone);
      probe->spans.push_back(
          {t1, t2, probe->op_index, probe->thread, true, progress});
      t_kind = saved;
    }
    return progress;
  });
}

OpScope::OpScope(Probe* probe) noexcept
    : probe_(probe != nullptr && probe->traced ? probe : nullptr),
      start_ns_(wall_ns()) {
  if (probe_ != nullptr) t_kind = static_cast<int>(SpanKind::kDriver);
}

std::uint64_t OpScope::finish() noexcept {
  if (finished_) return duration_ns_;
  finished_ = true;
  const std::uint64_t end = wall_ns();
  duration_ns_ = end - start_ns_;
  if (probe_ != nullptr) {
    t_kind = static_cast<int>(SpanKind::kNone);
    probe_->op_ns += duration_ns_;
    if (probe_->op_index < probe_->span_budget) {
      probe_->spans.push_back(
          {start_ns_, end, probe_->op_index, probe_->thread, false, true});
    }
    ++probe_->op_index;
  }
  return duration_ns_;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const Probe*>& probes) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::uint64_t origin = UINT64_MAX;
  for (const Probe* probe : probes) {
    for (const Span& span : probe->spans) {
      if (span.start_ns < origin) origin = span.start_ns;
    }
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", out);
  bool first = true;
  for (const Probe* probe : probes) {
    for (const Span& span : probe->spans) {
      std::fprintf(
          out,
          "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu%s}}",
          first ? "" : ",", span.is_poll ? "poll_once" : "op",
          span.is_poll ? "controller" : "driver", span.thread,
          static_cast<double>(span.start_ns - origin) / 1e3,
          static_cast<double>(span.end_ns - span.start_ns) / 1e3,
          static_cast<unsigned long long>(span.op),
          span.is_poll ? (span.progress ? ",\"progress\":true"
                                        : ",\"progress\":false")
                       : "");
      first = false;
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench

// Counting replacements of the global allocation functions, linked into
// the benchmark binary only. Counting costs one thread-local test per
// allocation when the thread is not inside a traced op span.
void* operator new(std::size_t size) {
  perfbench::count_alloc();
  return perfbench::checked_malloc(size);
}
void* operator new[](std::size_t size) {
  perfbench::count_alloc();
  return perfbench::checked_malloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  perfbench::count_alloc();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  perfbench::count_alloc();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  perfbench::count_alloc();
  return perfbench::checked_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  perfbench::count_alloc();
  return perfbench::checked_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
