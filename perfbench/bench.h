// Shared plumbing for the end-to-end benchmark binary (ss_perfbench).
//
// The binary runs one workload per process.  Each workload is a
// WorkloadRunner: `run_job` executes one complete job against the library's
// public entry points (setup, training or sweep, answer, output checks) and
// `layer_metrics` fills the per-layer figures of the traced run.  main.cpp
// owns the time loop, the traced/untraced split and the JSON report; run.py
// turns that report into the benchmark's result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ss {
class SharedParameterServer;
}  // namespace ss

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool tiny = false;         ///< self-test size: every workload in a few seconds
  std::string trace_out;     ///< Chrome trace path (traced mode)
  std::string run_dir;       ///< per-run files (Unix sockets) live here
};

/// One timed job.  Negative optional fields mean "not reported by this
/// workload".
struct Rep {
  double setup_s = 0.0;     ///< job start to first step / first sweep task
  double job_wall_s = 0.0;  ///< first step to the job's answer
  double samples = 0.0;     ///< minibatch samples whose gradients were applied
  double final_acc = 0.0;
  double staleness = -1.0;
  double speedup = -1.0;
  std::vector<std::string> failures;  ///< output checks that failed (empty = correct)

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// The jobs whose timings count: all but the first, which warms caches and
/// the allocator (it is still checked).
[[nodiscard]] inline std::vector<Rep> timed_reps(const std::vector<Rep>& reps) {
  return reps.size() > 1 ? std::vector<Rep>(reps.begin() + 1, reps.end()) : reps;
}

/// CPUs the benchmark process runs on.  On a shared VM a process that
/// spreads its threads and wake-ups over every vCPU makes the hypervisor
/// schedule each of them, and its timings then follow the host's load
/// (see README.md, "Deviations").  Every workload keeps at most this many
/// threads busy.
inline constexpr int kCpus = 2;

/// Binds the calling process to `kCpus` of the CPUs it may use (the
/// highest-numbered ones, away from CPU 0's interrupt work).  Call before
/// any thread starts: threads inherit the binding.
void bind_cpus();

/// CPUs the process may run on after `bind_cpus` (what `nproc` prints).
[[nodiscard]] std::size_t cpu_count();

/// Ordered (name, value) list: the raw per-layer figures of a traced run.
using Fields = std::vector<std::pair<std::string, double>>;

class WorkloadRunner {
 public:
  virtual ~WorkloadRunner() = default;
  /// One complete job, timed, with its output checks applied.
  virtual Rep run_job() = 0;
  /// Traced mode, before tracing is armed: untraced reference runs the
  /// per-layer ratios need (single-worker baseline, entries run alone).
  /// `untraced` holds this process's untraced jobs.
  virtual void reference_runs(const std::vector<Rep>& untraced, Fields& out) = 0;
  /// Traced mode, after the traced job: micro-probes of each layer's public
  /// functions plus figures read off the traced job's result structs.
  virtual void layer_metrics(const Rep& traced, Fields& out) = 0;
};

std::unique_ptr<WorkloadRunner> make_switch_threaded(const Options& opt);
std::unique_ptr<WorkloadRunner> make_controller_evict(const Options& opt);
std::unique_ptr<WorkloadRunner> make_wire_wide(const Options& opt);
std::unique_ptr<WorkloadRunner> make_sim_sweep(const Options& opt);

// ---------------------------------------------------------------------------
// Tracing: the benchmark's own spans around each call into a layer.  They go
// into the program's WallTracer (obs::tracer()) next to its step / drain /
// send / recv / decision spans, and carry the run id every span of one
// workload run shares.  Recording happens only while tracing is armed.
// ---------------------------------------------------------------------------

/// Track the benchmark's main thread records on (worker slots use w+1).
inline constexpr int kBenchTrack = 60;

/// Set once per process: "<workload>-s<seed>-p<pid>".
void set_run_id(std::string id);

/// RAII span named "<layer>.<call>".  `blocking` marks a call whose
/// work runs on other threads (threaded_train, run_ps_server, a sweep): its
/// duration is wall time, not the layer's busy time, so trace analysis
/// excludes it from self time.
class Span {
 public:
  Span(const char* layer, const char* call, bool blocking = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* layer_;
  const char* call_;
  bool blocking_;
  bool on_;
  std::int64_t start_us_ = 0;
};

/// Record a span measured elsewhere (e.g. a sweep entry timed by an
/// observer on a pool thread) on `track`.
void record_span(const char* layer, const char* call, int track, Clock::time_point t0,
                 Clock::time_point t1);

// ---------------------------------------------------------------------------
// Micro-probes: time a call into a layer's public function.
// ---------------------------------------------------------------------------

/// Median seconds per call of `fn`, over `rounds` rounds of `iters` calls
/// each after one warm-up round.  Wrapped in a leaf Span.
double probe(const char* layer, const char* call, int iters, const std::function<void()>& fn,
             int rounds = 5);

/// `threads` callers run `fn(thread_index)` `iters` times each, released
/// together; returns the median over threads of seconds per call.
double probe_contended(const char* layer, const char* call, std::size_t threads, int iters,
                       const std::function<void(std::size_t)>& fn);

/// ps.pull_us / ps.push_us and their contended variants (one caller per
/// CPU the process runs on) against `ps`.
void ps_probes(ss::SharedParameterServer& ps, std::size_t num_params, Fields& out);

/// tensor.matmul_gflops: ops::matmul at resnet32_lite's largest layer shape.
void tensor_probe(Fields& out);

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);

}  // namespace perfbench
