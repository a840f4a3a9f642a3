#include <sched.h>

#include <barrier>
#include <thread>

#include "bench.h"
#include "obs/obs.h"

namespace perfbench {

namespace {

std::string g_run_id;

void emit(const char* layer, const char* call, int track, std::int64_t start_us,
          std::int64_t dur_us, bool blocking) {
  ss::obs::tracer().complete(track, std::string(layer) + "." + call, start_us, dur_us,
                             {ss::obs::arg("run", g_run_id), ss::obs::arg("layer", layer),
                              ss::obs::arg("kind", blocking ? "blocking" : "leaf")});
}

}  // namespace

void set_run_id(std::string id) { g_run_id = std::move(id); }

void bind_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t use;
  CPU_ZERO(&use);
  int n = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0 && n < kCpus; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, &use);
    ++n;
  }
  if (n > 0) (void)sched_setaffinity(0, sizeof(use), &use);
}

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

Span::Span(const char* layer, const char* call, bool blocking)
    : layer_(layer), call_(call), blocking_(blocking), on_(ss::obs::tracing()) {
  if (on_) start_us_ = ss::obs::tracer().now_us();
}

Span::~Span() {
  if (on_)
    emit(layer_, call_, ss::obs::thread_track(), start_us_,
         ss::obs::tracer().now_us() - start_us_, blocking_);
}

void record_span(const char* layer, const char* call, int track, Clock::time_point t0,
                 Clock::time_point t1) {
  if (!ss::obs::tracing()) return;
  const auto& tr = ss::obs::tracer();
  emit(layer, call, track, tr.to_us(t0), tr.to_us(t1) - tr.to_us(t0), /*blocking=*/false);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

double probe(const char* layer, const char* call, int iters, const std::function<void()>& fn,
             int rounds) {
  const Span span(layer, call);
  for (int i = 0; i < iters; ++i) fn();  // warm-up: caches, allocator, lazy state
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) fn();
    per_call.push_back(seconds_between(t0, Clock::now()) / iters);
  }
  return median(std::move(per_call));
}

double probe_contended(const char* layer, const char* call, std::size_t threads, int iters,
                       const std::function<void(std::size_t)>& fn) {
  const Span span(layer, call);
  std::barrier start(static_cast<std::ptrdiff_t>(threads));
  std::vector<double> per_call(threads, 0.0);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      fn(t);  // warm-up
      start.arrive_and_wait();
      const auto t0 = Clock::now();
      for (int i = 0; i < iters; ++i) fn(t);
      per_call[t] = seconds_between(t0, Clock::now()) / iters;
    });
  }
  for (auto& th : pool) th.join();
  return median(std::move(per_call));
}

}  // namespace perfbench
