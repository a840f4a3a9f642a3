// sim-sweep: offline policy search on the simulator.
//
// One SweepRunner (2 lanes, no RunCache) over 12 entries:
// {BSP, ASP, BSP->ASP@1/16} x {setup-1 from bench/setups.h (resnet32_lite,
// 8 simulated workers, 2048 steps), a large cluster (linear, 256 simulated
// workers, 16384 steps)} x {clean, straggler episodes inside the run}.  The
// setup-1 half is nn-bound (real math under virtual time); the large half is
// DES-engine-bound.
#include "bench.h"
#include "core/sweep.h"
#include "obs/obs.h"
#include "ps/threaded_runtime.h"
#include "setups.h"

namespace perfbench {

namespace {

using namespace ss;

constexpr int kPolicies = 3;  // BSP, ASP, BSP->ASP@1/16 (the Sync-Switch entry)
constexpr int kSyncSwitch = 2;
constexpr int kBsp = 0;
constexpr std::size_t kSmall = 0;  // setup-1 half; entries are [half][straggled][policy]

/// Per-entry observer: counts tasks and evaluations and notes when the
/// entry produced its first (and, traced, last) observation.  Each entry
/// runs on one pool thread, so the counters need no synchronisation.
class EntryProbe final : public MetricsSink {
 public:
  explicit EntryProbe(bool traced) : traced_(traced) {}
  void on_task(const TaskObservation&) override {
    ++tasks;
    mark();
  }
  void on_update(const UpdateObservation&) override { mark(); }
  void on_eval(std::int64_t, VTime, double) override {
    ++evals;
    mark();
  }

  std::int64_t tasks = 0;
  std::int64_t evals = 0;
  bool seen = false;
  Clock::time_point first, last;
  int track = 0;

 private:
  void mark() {
    if (!seen) {
      seen = true;
      first = Clock::now();
      if (traced_) track = ss::obs::thread_track();
    }
    if (traced_) last = Clock::now();
  }
  bool traced_;
};

/// One half of the grid: a setup plus its straggler scenario.
struct Half {
  const char* name;
  setups::ExperimentSetup setup;
  StragglerScenario stragglers;  ///< generated from the run seed...
  StragglerSchedule schedule;     ///< ...unless explicit episodes are given
};

class SimSweep final : public WorkloadRunner {
 public:
  explicit SimSweep(const Options& opt) : opt_(opt) {
    jobs_ = std::min<std::size_t>(kCpus, cpu_count());

    setups::ExperimentSetup small = setups::setup1();
    small.workload.data.seed = opt.seed;
    if (opt.tiny) {
      small.workload.total_steps = 256;
      small.workload.eval_interval = 32;
    }
    // StragglerScenario::moderate()'s 30-minute horizon would place every
    // episode after the scaled run ends; pull it inside the run, as
    // bench/fig15_straggler_policies.cpp does.
    StragglerScenario small_sc = StragglerScenario::moderate();
    small_sc.max_duration = VTime::from_seconds(30.0);
    small_sc.horizon = VTime::from_seconds(opt.tiny ? 4.0 : 45.0);

    setups::ExperimentSetup large = small;
    large.workload.arch = ModelArch::kLinear;
    large.workload.data = SyntheticSpec::cifar10_like();
    large.workload.data.train_size = 8192;
    large.workload.data.seed = opt.seed;
    large.workload.total_steps = opt.tiny ? 1024 : 16384;
    large.workload.hyper.batch_size = 32;
    large.workload.hyper.learning_rate = 0.01;
    large.workload.eval_interval = opt.tiny ? 256 : 1024;
    large.cluster.num_workers = opt.tiny ? 32 : 256;
    large.cluster.payload_bytes = 4.0 * (64 * 10 + 10);
    large.cluster.compute_per_batch = VTime::from_ms(20.0);
    // The large half's runs span ~1 s (ASP) to hours (BSP) of virtual time,
    // so no uniform horizon lands episodes inside all three.  Its episodes
    // are explicit instead: 16 seed-chosen workers slowed like the moderate
    // scenario's 30 ms, four short episodes each from t = 0, which every
    // policy's first tasks overlap.
    Rng rng(opt.seed);
    std::vector<StragglerEvent> events;
    for (int k = 0; k < 16; ++k) {
      const int worker = static_cast<int>(rng.uniform_index(large.cluster.num_workers));
      for (int o = 0; o < 4; ++o)
        events.push_back({worker, VTime::from_seconds(0.25 * o), VTime::from_seconds(0.2),
                          StragglerSchedule::latency_to_slow_factor(30.0)});
    }

    halves_ = {{"small", small, small_sc, {}}, {"large", large, {}, StragglerSchedule(events)}};
  }

  Rep run_job() override {
    Rep rep;
    const Clock::time_point t0 = Clock::now();
    const bool traced = ss::obs::tracing();
    std::vector<EntryProbe> probes(halves_.size() * 2 * kPolicies, EntryProbe(traced));
    std::vector<RunRequest> requests;
    for (const Half& h : halves_)
      for (int straggled = 0; straggled < 2; ++straggled)
        for (int p = 0; p < kPolicies; ++p) {
          RunRequest req = straggled ? setups::make_straggler_request(h.setup, policy(p),
                                                                       h.stragglers, opt_.seed)
                                     : setups::make_request(h.setup, policy(p), opt_.seed);
          if (straggled && !h.schedule.events().empty()) req.straggler_schedule = h.schedule;
          req.observer = &probes[requests.size()];
          requests.push_back(std::move(req));
        }
    {
      const Span span("core", "SweepRunner::run", /*blocking=*/true);
      outcomes_ = SweepRunner({jobs_, nullptr}).run(requests);
    }
    const Clock::time_point t_end = Clock::now();
    sweep_wall_ = seconds_between(t0, t_end);

    // The first `jobs_` entries start together; each one's time to its first
    // task is one set-up (session data synthesis + model build + pool spawn).
    // setup_s is their median, job_wall_s runs from the earliest first task.
    Clock::time_point first = t_end;
    std::vector<double> setup_times;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      if (!probes[i].seen) continue;
      first = std::min(first, probes[i].first);
      if (i < jobs_) setup_times.push_back(seconds_between(t0, probes[i].first));
    }
    rep.setup_s = median(setup_times);
    rep.job_wall_s = seconds_between(first, t_end);
    for (std::size_t i = 0; i < outcomes_.size(); ++i)
      rep.samples += static_cast<double>(outcomes_[i].result.steps_completed) *
                     static_cast<double>(requests[i].workload.hyper.batch_size);
    // final_acc is the median converged accuracy of the six setup-1 entries:
    // the Sync-Switch entry alone swings 0.62-0.95 across seeds (its ASP
    // phase sometimes loses BSP's optimum), too wide for a regression bound.
    // It is still checked against its band and reported as sim.ss_acc.
    std::vector<double> small_acc;
    for (int s = 0; s < 2; ++s)
      for (int p = 0; p < kPolicies; ++p)
        small_acc.push_back(entry(kSmall, s, p).result.converged_accuracy);
    rep.final_acc = median(small_acc);
    const RunResult& ss_clean = entry(kSmall, 0, kSyncSwitch).result;
    rep.staleness = ss_clean.mean_staleness;
    rep.speedup = entry(kSmall, 0, kBsp).result.train_time_seconds / ss_clean.train_time_seconds;
    check(rep);
    tasks_.assign(halves_.size(), 0);
    evals_.assign(halves_.size(), 0);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      tasks_[i / (2 * kPolicies)] += probes[i].tasks;
      evals_[i / (2 * kPolicies)] += probes[i].evals;
      if (traced && probes[i].seen)
        record_span("sim", "TrainingSession::run", probes[i].track, probes[i].first,
                    probes[i].last);
    }
    return rep;
  }

  void reference_runs(const std::vector<Rep>&, Fields& out) override {
    // core.sweep_contention: the Sync-Switch clean entry of each half in the
    // last untraced sweep, against the same entry run alone.
    double ratio = 0;
    for (std::size_t h = 0; h < halves_.size(); ++h) {
      RunRequest req = setups::make_request(halves_[h].setup, policy(kSyncSwitch), opt_.seed);
      const Clock::time_point t0 = Clock::now();
      (void)TrainingSession(req).run();
      ratio += entry(h, 0, kSyncSwitch).wall_seconds / seconds_between(t0, Clock::now());
    }
    out.emplace_back("core.sweep_contention", ratio / static_cast<double>(halves_.size()));
  }

  void layer_metrics(const Rep&, Fields& out) override {
    std::vector<double> walls;
    double wall_sum = 0;
    for (const SweepOutcome& o : outcomes_) {
      walls.push_back(o.wall_seconds);
      wall_sum += o.wall_seconds;
    }
    out.emplace_back("sim.run_s_p50", percentile(walls, 0.5));
    out.emplace_back("sim.run_s_max", percentile(walls, 1.0));
    out.emplace_back("sim.ss_acc", entry(kSmall, 0, kSyncSwitch).result.converged_accuracy);
    out.emplace_back("sim.tasks", static_cast<double>(tasks_[0] + tasks_[1]));
    out.emplace_back("core.sweep_util", wall_sum / (static_cast<double>(jobs_) * sweep_wall_));

    tensor_probe(out);
    for (std::size_t h = 0; h < halves_.size(); ++h) {
      const Half& half = halves_[h];
      const Workload& wl = half.setup.workload;
      const DataSplit split = make_synthetic(wl.data);
      const Dataset eval_set = split.test.head(std::min<std::size_t>(split.test.size(), 2048));
      Rng rng(opt_.seed);
      Model model = make_model(wl.arch, wl.data.feature_dim, wl.data.num_classes, rng);
      const std::vector<float> params = model.get_params();
      const std::size_t batch = wl.hyper.batch_size;
      std::vector<std::uint32_t> idx(batch);
      for (std::size_t i = 0; i < batch; ++i) idx[i] = static_cast<std::uint32_t>(i * 97);
      Tensor x({batch, wl.data.feature_dim});
      std::vector<int> y(batch);
      split.train.gather(idx, x, y);
      // The pool runs `jobs_` entries at once, so a task's gradient costs
      // what it costs with `jobs_` concurrent callers.
      std::vector<Model> replicas;
      std::vector<std::vector<float>> grads(jobs_, std::vector<float>(params.size()));
      for (std::size_t j = 0; j < jobs_; ++j) replicas.push_back(model.clone());
      const double grad_s =
          probe_contended("nn", "gradient_at", jobs_, 300, [&](std::size_t j) {
            replicas[j].gradient_at(params, x, y, grads[j]);
          });
      const double eval_s = probe("nn", "evaluate_accuracy", 2, [&] {
        (void)model.evaluate_accuracy(eval_set);
      }, 3);
      double half_wall = 0;
      for (int k = 0; k < 2 * kPolicies; ++k) half_wall += outcomes_[h * 2 * kPolicies + k].wall_seconds;
      const auto tasks = static_cast<double>(tasks_[h]);
      const auto evals = static_cast<double>(evals_[h]);
      const std::string suffix = std::string(".") + half.name;
      out.emplace_back("sim.us_per_task" + suffix, 1e6 * half_wall / std::max(1.0, tasks));
      out.emplace_back("sim.engine_share" + suffix,
                       1.0 - (tasks * grad_s + evals * eval_s) / half_wall);
      if (std::string(half.name) != "small") continue;
      // The setup-1 half is the nn-bound one: its model and batch are the
      // workload's nn / data / ps figures.
      std::vector<float> grad(params.size());
      out.emplace_back("nn.grad_ms", 1e3 * probe("nn", "gradient_at", 200, [&] {
                         model.gradient_at(params, x, y, grad);
                       }));
      out.emplace_back("nn.grad_ms_contended", 1e3 * grad_s);
      out.emplace_back("nn.eval_ms", 1e3 * eval_s);
      out.emplace_back("data.gather_us", 1e6 * probe("data", "gather", 2000, [&] {
                         split.train.gather(idx, x, y);
                       }));
      out.emplace_back("data.synth_s", probe("data", "make_synthetic", 1, [&] {
                         (void)make_synthetic(wl.data);
                       }, 3));
      SharedParameterServer ps(params, 0.9, 1);
      ps_probes(ps, params.size(), out);
    }
  }

 private:
  static SyncSwitchPolicy policy(int p) {
    if (p == kBsp) return SyncSwitchPolicy::pure(Protocol::kBsp);
    if (p == 1) return SyncSwitchPolicy::pure(Protocol::kAsp);
    return SyncSwitchPolicy::bsp_to_asp(1.0 / 16.0);
  }

  const SweepOutcome& entry(std::size_t half, int straggled, int p) const {
    return outcomes_[(half * 2 + static_cast<std::size_t>(straggled)) * kPolicies +
                     static_cast<std::size_t>(p)];
  }

  void check(Rep& rep) const {
    for (std::size_t h = 0; h < halves_.size(); ++h)
      for (int s = 0; s < 2; ++s)
        for (int p = 0; p < kPolicies; ++p) {
          const SweepOutcome& o = entry(h, s, p);
          const std::string label = std::string(halves_[h].name) + (s ? "/straggler/" : "/clean/") +
                                    std::to_string(p);
          rep.check(o.error.empty(), label + ": " + o.error);
          if (!opt_.tiny) {
            const double acc = o.result.converged_accuracy;
            rep.check(acc >= kAccBand[h][p][0] && acc <= kAccBand[h][p][1],
                      label + ": converged accuracy " + std::to_string(acc) + " outside band");
          }
        }
    // The straggler episodes must land inside the run: each straggler entry
    // differs in virtual time from its clean twin.
    for (std::size_t h = 0; h < halves_.size(); ++h)
      for (int p = 0; p < kPolicies; ++p)
        rep.check(entry(h, 1, p).result.train_time_seconds !=
                      entry(h, 0, p).result.train_time_seconds,
                  std::string(halves_[h].name) + " straggler entry " + std::to_string(p) +
                      " has its clean twin's virtual time");
  }

  // Converged-accuracy band per [half][policy] (BSP, ASP, Sync-Switch),
  // clean and straggler runs alike: the range seen over seeds 1-16 at full
  // size, widened by 0.1 below and 0.05 above, so kernels that reorder
  // floating-point math still pass.  Setup-1's ASP and Sync-Switch entries
  // have a long lower tail (ASP at full learning rate sometimes leaves the
  // optimum; seed 127 gave 0.444), so their floor is 0.25, 2.5x chance: it
  // still catches a collapsed or diverged run.  See README.md.
  static constexpr double kAccBand[2][kPolicies][2] = {
      {{0.81, 0.99}, {0.25, 1.0}, {0.25, 1.0}},
      {{0.61, 0.81}, {0.62, 0.84}, {0.62, 0.84}},
  };

  Options opt_;
  std::size_t jobs_ = 1;
  std::vector<Half> halves_;
  std::vector<SweepOutcome> outcomes_;
  double sweep_wall_ = 0;
  std::vector<std::int64_t> tasks_, evals_;
};

}  // namespace

std::unique_ptr<WorkloadRunner> make_sim_sweep(const Options& opt) {
  return std::make_unique<SimSweep>(opt);
}

}  // namespace perfbench
