// Workloads on the in-process threaded runtime (ps/threaded_runtime.h):
//
//  * switch-threaded  — the paper's headline policy under its target fault:
//    BSP for 1/16 of the per-worker budget, then ASP, with one transient x4
//    straggler episode inside the ASP phase.
//  * controller-evict — the online controller (control/) with eviction on,
//    against a persistent x8 straggler: the only workload where control/
//    and elastic/ do any work.
//
// Both train resnet32_lite on 2 worker threads, batch 32, over a 4-shard
// in-process parameter server.  Two busy threads leave half of a 4-vCPU
// host free, so other load does not stall a worker (see README.md).
#include <atomic>
#include <cmath>

#include "bench.h"
#include "data/synthetic.h"
#include "nn/zoo.h"
#include "ps/threaded_runtime.h"
#include "tensor/ops.h"

namespace perfbench {

namespace {

using namespace ss;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kShards = 4;
constexpr double kTransientFactor = 4.0;
constexpr double kPersistentFactor = 8.0;

// Test-accuracy floors, set below the lowest value seen across seeds 1-20
// at full size (see README.md).  Tiny self-test runs are too short to train,
// so they check only the structural invariants.
constexpr double kSwitchAccFloor = 0.75;
constexpr double kControllerAccFloor = 0.70;

enum class Kind { kSwitch, kController };

class ThreadedWorkload final : public WorkloadRunner {
 public:
  ThreadedWorkload(const Options& opt, Kind kind) : opt_(opt), kind_(kind) {
    spec_ = SyntheticSpec::cifar10_like();
    spec_.seed = opt.seed;
    if (opt.tiny) {
      spec_.train_size = 4096;
      spec_.test_size = 1024;
    }
    steps_ = kind == Kind::kSwitch ? (opt.tiny ? 256 : 1536) : (opt.tiny ? 512 : 3072);
    straggler_slot_ = static_cast<int>(opt.seed % kWorkers);
  }

  Rep run_job() override {
    Rep rep;
    const Clock::time_point t0 = Clock::now();
    split_ = {};  // free the previous job's data first: peak RSS holds one copy
    split_ = make_data();
    const Model model = make_init_model();

    ThreadedTrainConfig cfg = base_config();
    std::atomic<bool> started{false};
    std::atomic<std::int64_t> first_step_ns{0};
    cfg.pre_step_hook = [&](std::size_t, std::int64_t) {
      if (started.load(std::memory_order_relaxed) || started.exchange(true)) return;
      first_step_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now().time_since_epoch())
                              .count());
    };
    {
      const Span span("ps", "threaded_train", /*blocking=*/true);
      result_ = threaded_train(model, split_.train, cfg);
    }
    rep.final_acc = evaluate(model, result_.final_params);
    const Clock::time_point t_end = Clock::now();
    const Clock::time_point first_step{std::chrono::nanoseconds(first_step_ns.load())};
    rep.setup_s = seconds_between(t0, first_step);
    rep.job_wall_s = seconds_between(first_step, t_end);
    rep.samples = static_cast<double>(kBatch) * static_cast<double>(local_steps_applied());
    rep.staleness = result_.mean_staleness;
    check(rep);
    return rep;
  }

  void reference_runs(const std::vector<Rep>& untraced, Fields& out) override {
    // ps.scaling_eff: this workload's samples/s over workers x a
    // single-worker, straggler-free ASP run of the same task.
    const Model model = make_init_model();
    ThreadedTrainConfig cfg;
    cfg.protocol = Protocol::kAsp;
    cfg.num_workers = 1;
    cfg.batch_size = kBatch;
    cfg.steps_per_worker = steps_ / 4;
    cfg.lr = 0.05;
    cfg.seed = opt_.seed;
    cfg.num_ps_shards = kShards;
    const Clock::time_point t0 = Clock::now();
    (void)threaded_train(model, split_.train, cfg);
    const double single =
        static_cast<double>(cfg.steps_per_worker * kBatch) / seconds_between(t0, Clock::now());
    std::vector<double> rates;
    for (const Rep& r : untraced) rates.push_back(r.samples / r.job_wall_s);
    out.emplace_back("ps.scaling_eff", median(rates) / (kWorkers * single));
  }

  void layer_metrics(const Rep& traced, Fields& out) override {
    Model model = make_init_model();
    const std::vector<float> params = model.get_params();

    tensor_probe(out);
    // nn: one gradient task at the workload's model and batch, alone and
    // with one caller per worker thread; test-split evaluation.
    std::vector<std::uint32_t> idx(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) idx[i] = static_cast<std::uint32_t>(i * 97);
    Tensor x({kBatch, spec_.feature_dim});
    std::vector<int> y(kBatch);
    split_.train.gather(idx, x, y);
    std::vector<float> grad(params.size());
    out.emplace_back("nn.grad_ms", 1e3 * probe("nn", "gradient_at", 200, [&] {
                       model.gradient_at(params, x, y, grad);
                     }));
    std::vector<Model> replicas;
    std::vector<std::vector<float>> grads(kWorkers, std::vector<float>(params.size()));
    for (std::size_t w = 0; w < kWorkers; ++w) replicas.push_back(model.clone());
    out.emplace_back("nn.grad_ms_contended",
                     1e3 * probe_contended("nn", "gradient_at", kWorkers, 500, [&](std::size_t w) {
                       replicas[w].gradient_at(params, x, y, grads[w]);
                     }));
    out.emplace_back("nn.eval_ms", 1e3 * probe("nn", "evaluate_accuracy", 2, [&] {
                       (void)model.evaluate_accuracy(split_.test);
                     }, 3));
    // data: batch gather and dataset synthesis.
    out.emplace_back("data.gather_us",
                     1e6 * probe("data", "gather", 2000, [&] { split_.train.gather(idx, x, y); }));
    out.emplace_back("data.synth_s",
                     probe("data", "make_synthetic", 1, [&] { (void)make_synthetic(spec_); }, 3));
    // ps: pull / push against a SharedParameterServer of this model's size
    // and shard count, 1 caller then one per CPU the process runs on.
    SharedParameterServer ps(params, 0.9, kShards);
    ps_probes(ps, params.size(), out);

    // Figures read off the traced job's result structs.
    double bsp_updates = 0, bsp_wall = 0, asp_updates = 0, asp_wall = 0;
    for (const ThreadedPhaseStats& p : result_.phases) {
      if (p.protocol == Protocol::kBsp) {
        bsp_updates += static_cast<double>(p.updates);
        bsp_wall += p.wall_seconds;
      } else {
        asp_updates += static_cast<double>(p.updates);
        asp_wall += p.wall_seconds;
      }
    }
    out.emplace_back("ps.bsp_updates_per_s", bsp_wall > 0 ? bsp_updates / bsp_wall : 0.0);
    out.emplace_back("ps.asp_updates_per_s", asp_wall > 0 ? asp_updates / asp_wall : 0.0);
    out.emplace_back("ps.updates", static_cast<double>(result_.total_updates));
    out.emplace_back("ps.push_bytes_per_update",
                     static_cast<double>(result_.push_bytes) /
                         static_cast<double>(std::max<std::int64_t>(1, result_.total_updates)));

    // control: one record per drain-barrier decision.
    std::vector<double> decide_ms;
    double decide_s = 0, enacted = 0, hits = 0, candidates = 0, evict_step = 0;
    for (const ControllerDecision& d : result_.decisions) {
      decide_ms.push_back(1e3 * d.decide_wall_seconds);
      decide_s += d.decide_wall_seconds;
      hits += static_cast<double>(d.cache_hits);
      candidates += static_cast<double>(d.candidates.size());
      if (d.enacted) {
        ++enacted;
        if (d.chosen.evict_straggler) evict_step = static_cast<double>(d.at_step);
      }
    }
    out.emplace_back("control.decide_ms_p50", percentile(decide_ms, 0.5));
    out.emplace_back("control.decide_ms_p90", percentile(decide_ms, 0.9));
    out.emplace_back("control.decisions", static_cast<double>(result_.decisions.size()));
    out.emplace_back("control.enacted", enacted);
    out.emplace_back("control.twin_hit_frac", candidates > 0 ? hits / candidates : 0.0);
    out.emplace_back("control.evict_step", evict_step);
    out.emplace_back("control.decide_share", decide_s / traced.job_wall_s);
    // elastic: membership recovery passes.
    double recovery_s = 0, lost = 0;
    for (const ThreadedMembershipStats& m : result_.membership) {
      recovery_s += m.recovery_wall_seconds;
      lost += static_cast<double>(m.updates_lost);
    }
    out.emplace_back("elastic.recovery_ms", 1e3 * recovery_s);
    out.emplace_back("elastic.updates_lost", lost);
  }

 private:
  DataSplit make_data() const {
    const Span span("data", "make_synthetic");
    return make_synthetic(spec_);
  }

  Model make_init_model() const {
    const Span span("nn", "make_model");
    Rng rng(opt_.seed);
    return make_model(ModelArch::kResNet32Lite, spec_.feature_dim, spec_.num_classes, rng);
  }

  double evaluate(const Model& proto, const std::vector<float>& params) const {
    const Span span("nn", "evaluate_accuracy");
    Model m = proto.clone();
    m.set_params(params);
    return m.evaluate_accuracy(split_.test);
  }

  ThreadedTrainConfig base_config() const {
    ThreadedTrainConfig cfg;
    cfg.num_workers = kWorkers;
    cfg.batch_size = kBatch;
    cfg.steps_per_worker = steps_;
    cfg.lr = 0.05;
    cfg.momentum = 0.9;
    cfg.seed = opt_.seed;
    cfg.num_ps_shards = kShards;
    if (kind_ == Kind::kSwitch) {
      cfg.schedule = SwitchSchedule::bsp_to_asp(steps_ / 16);
      // Wall-clock episode, seconds since the run started: after the BSP
      // phase (~0.05 s at full size) and well before the ASP phase ends.
      cfg.stragglers = StragglerSchedule::transient(
          straggler_slot_, VTime::from_seconds(opt_.tiny ? 0.02 : 0.2),
          VTime::from_seconds(opt_.tiny ? 10.0 : 0.4), kTransientFactor);
    } else {
      cfg.protocol = Protocol::kBsp;
      cfg.stragglers = StragglerSchedule::permanent(straggler_slot_, kPersistentFactor);
      cfg.controller.enabled = true;
      cfg.controller.decision_interval = 32;
      cfg.controller.consider_eviction = true;
      // Eviction is the only move on offer.  With 2 workers a switch to ASP
      // (1 + 1/8 of a worker's throughput) prices close to evicting the
      // straggler (1 worker), and in about 1 job in 100 the controller
      // switched instead of evicting.
      cfg.controller.protocols = {Protocol::kBsp};
      // One straggler, one eviction: the floor keeps the controller from
      // going on to evict a healthy worker once the straggler is gone
      // (see README.md, "Findings").
      cfg.controller.min_workers = kWorkers - 1;
      cfg.controller.cache_dir.clear();  // in-memory twin cache only: every run is cold
      cfg.controller.twin_jobs =
          std::min<std::size_t>(kWorkers, cpu_count());
    }
    return cfg;
  }

  /// Local steps whose gradients reached the PS: every worker runs the full
  /// budget except evicted slots, which stop at their eviction step.
  [[nodiscard]] std::int64_t local_steps_applied() const {
    std::int64_t steps = static_cast<std::int64_t>(kWorkers) * steps_;
    for (const ThreadedMembershipStats& m : result_.membership)
      if (m.kind != MembershipEventKind::kJoin) steps -= steps_ - m.at_step;
    return steps;
  }

  void check(Rep& rep) const {
    bool finite = !result_.final_params.empty();
    for (const float p : result_.final_params) finite = finite && std::isfinite(p);
    rep.check(finite, "final params finite");
    if (kind_ == Kind::kSwitch) {
      const std::int64_t bsp = steps_ / 16;
      const std::int64_t want = bsp + static_cast<std::int64_t>(kWorkers) * (steps_ - bsp);
      rep.check(result_.total_updates == want,
                "total_updates " + std::to_string(result_.total_updates) + " != " +
                    std::to_string(want));
      rep.check(result_.phases.size() == 2 && result_.phases[0].protocol == Protocol::kBsp &&
                    result_.phases[1].protocol == Protocol::kAsp,
                "schedule ran BSP then ASP");
      if (!opt_.tiny)
        rep.check(rep.final_acc >= kSwitchAccFloor,
                  "final_acc " + std::to_string(rep.final_acc) + " below floor");
    } else {
      int evictions = 0;
      for (const ControllerDecision& d : result_.decisions)
        if (d.enacted && d.chosen.evict_straggler) ++evictions;
      rep.check(evictions == 1, "enacted evictions " + std::to_string(evictions) + " != 1");
      rep.check(result_.membership.size() == 1 &&
                    result_.membership[0].worker == straggler_slot_,
                "eviction on the straggler's slot " + std::to_string(straggler_slot_));
      if (!opt_.tiny)
        rep.check(rep.final_acc >= kControllerAccFloor,
                  "final_acc " + std::to_string(rep.final_acc) + " below floor");
    }
  }

  Options opt_;
  Kind kind_;
  SyntheticSpec spec_;
  std::int64_t steps_ = 0;
  int straggler_slot_ = 0;
  DataSplit split_;
  ThreadedTrainResult result_;
};

}  // namespace

void tensor_probe(Fields& out) {
  // resnet32_lite's largest layers are 64 -> 96 and 96 -> 64 at batch 32.
  Tensor a({kBatch, 64}, 0.5f), b({64, 96}, 0.25f), c({kBatch, 96});
  const double s = probe("tensor", "matmul", 2000, [&] { ops::matmul(a, b, c); });
  out.emplace_back("tensor.matmul_gflops", 2.0 * kBatch * 64 * 96 / s / 1e9);
}

void ps_probes(ss::SharedParameterServer& ps, std::size_t num_params, Fields& out) {
  std::vector<float> buf(num_params), grad(num_params, 1e-3f);
  std::vector<std::int64_t> versions;
  out.emplace_back("ps.pull_us", 1e6 * probe("ps", "pull_with_versions", 200, [&] {
                     ps.pull_with_versions(buf, versions);
                   }));
  out.emplace_back("ps.push_us", 1e6 * probe("ps", "push", 200, [&] {
                     (void)ps.push(grad, 1e-9, versions);
                   }));
  const std::size_t callers = cpu_count();
  std::vector<std::vector<float>> bufs(callers, std::vector<float>(num_params));
  std::vector<std::vector<std::int64_t>> vers(callers);
  out.emplace_back("ps.pull_us_contended",
                   1e6 * probe_contended("ps", "pull_with_versions", callers, 200,
                                         [&](std::size_t t) {
                                           ps.pull_with_versions(bufs[t], vers[t]);
                                         }));
  out.emplace_back("ps.push_us_contended",
                   1e6 * probe_contended("ps", "push", callers, 200, [&](std::size_t t) {
                     if (vers[t].empty()) ps.pull_with_versions(bufs[t], vers[t]);
                     (void)ps.push(grad, 1e-9, vers[t]);
                   }));
}

std::unique_ptr<WorkloadRunner> make_switch_threaded(const Options& opt) {
  return std::make_unique<ThreadedWorkload>(opt, Kind::kSwitch);
}

std::unique_ptr<WorkloadRunner> make_controller_evict(const Options& opt) {
  return std::make_unique<ThreadedWorkload>(opt, Kind::kController);
}

}  // namespace perfbench
