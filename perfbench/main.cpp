// ss_perfbench: run one benchmark workload and print a raw JSON report.
//
//   ss_perfbench --workload NAME --seed N --seconds S [--traced] [--tiny]
//                [--trace-out FILE] [--run-dir DIR]
//
// Untraced mode repeats whole jobs while the next one should end within S
// seconds (at least kMinReps of them) and reports every job.  Traced mode
// spends about half of S on untraced jobs (the base of obs.trace_overhead),
// runs the workload's reference runs, then arms obs tracing + metrics for
// one more job and the layer probes, and writes the Chrome trace.  run.py reads the
// single line this prints and derives the benchmark's metrics from it.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "obs/obs.h"

namespace {

using namespace perfbench;

constexpr int kMinReps = 3;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string rep_json(const Rep& r) {
  std::ostringstream os;
  os << "{\"setup_s\":" << num(r.setup_s) << ",\"job_wall_s\":" << num(r.job_wall_s)
     << ",\"samples\":" << num(r.samples) << ",\"final_acc\":" << num(r.final_acc)
     << ",\"staleness\":" << num(r.staleness) << ",\"speedup\":" << num(r.speedup)
     << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    os << (i ? "," : "") << '"' << json_escape(r.failures[i]) << '"';
  os << "]}";
  return os.str();
}

Rep guarded_job(WorkloadRunner& runner) {
  try {
    return runner.run_job();
  } catch (const std::exception& e) {
    Rep r;
    r.failures.push_back(std::string("exception: ") + e.what());
    return r;
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--traced") o.traced = true;
    else if (a == "--tiny") o.tiny = true;
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--run-dir") o.run_dir = value();
    else throw std::invalid_argument("unknown flag " + a);
  }
  if (o.traced && o.trace_out.empty()) throw std::invalid_argument("--traced needs --trace-out");
  if (o.run_dir.empty()) o.run_dir = ".";
  return o;
}

std::unique_ptr<WorkloadRunner> make_runner(const Options& o) {
  if (o.workload == "switch-threaded") return make_switch_threaded(o);
  if (o.workload == "wire-wide") return make_wire_wide(o);
  if (o.workload == "sim-sweep") return make_sim_sweep(o);
  if (o.workload == "controller-evict") return make_controller_evict(o);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::unique_ptr<WorkloadRunner> runner;
  bind_cpus();
  try {
    opt = parse(argc, argv);
    runner = make_runner(opt);
  } catch (const std::exception& e) {
    std::cerr << "ss_perfbench: " << e.what() << "\n";
    return 2;
  }
  set_run_id(opt.workload + "-s" + std::to_string(opt.seed) + "-p" +
             std::to_string(static_cast<long>(getpid())));

  const auto start = Clock::now();
  const double untraced_budget = opt.traced ? opt.seconds / 2.0 : opt.seconds;
  const int min_reps = opt.traced ? 2 : kMinReps;
  // Start another job only while it should end inside the budget, judged by
  // the last job's length: a run then lasts about S seconds whatever a job
  // costs.
  std::vector<Rep> reps;
  double last_job_s = 0.0;
  while (static_cast<int>(reps.size()) < min_reps ||
         seconds_between(start, Clock::now()) + last_job_s <= untraced_budget) {
    const Clock::time_point job_start = Clock::now();
    reps.push_back(guarded_job(*runner));
    last_job_s = seconds_between(job_start, Clock::now());
  }

  std::ostringstream os;
  os << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
     << ",\"tiny\":" << (opt.tiny ? "true" : "false") << ",\"reps\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) os << (i ? "," : "") << rep_json(reps[i]);
  os << "]";

  if (opt.traced) {
    Fields fields;
    std::vector<std::string> trace_failures;
    try {
      runner->reference_runs(timed_reps(reps), fields);
      namespace obs = ss::obs;
      obs::set_thread_track(kBenchTrack);
      obs::enable_tracing();
      obs::enable_metrics();
      obs::tracer().set_track_name(kBenchTrack, "perfbench");
      const Rep traced = guarded_job(*runner);
      os << ",\"traced_rep\":" << rep_json(traced);
      auto& reg = obs::metrics();
      for (const char* c : {"ss_net_frames_sent_total", "ss_net_bytes_sent_total"})
        fields.emplace_back(c, static_cast<double>(reg.counter(c).value()));
      runner->layer_metrics(traced, fields);
      std::vector<double> walls;
      for (const Rep& r : timed_reps(reps)) walls.push_back(r.job_wall_s);
      fields.emplace_back("obs.trace_overhead", traced.job_wall_s / median(walls));
      obs::disable_all();
      obs::tracer().save_chrome_trace(opt.trace_out);
    } catch (const std::exception& e) {
      trace_failures.push_back(std::string("traced run: ") + e.what());
    }
    os << ",\"layer\":{";
    for (std::size_t i = 0; i < fields.size(); ++i)
      os << (i ? "," : "") << '"' << fields[i].first << "\":" << num(fields[i].second);
    os << "},\"trace_failures\":[";
    for (std::size_t i = 0; i < trace_failures.size(); ++i)
      os << (i ? "," : "") << '"' << json_escape(trace_failures[i]) << '"';
    os << "]";
  }
  os << ",\"peak_rss_mb\":" << num(peak_rss_mb()) << "}";
  std::cout << os.str() << std::endl;
  return 0;
}
