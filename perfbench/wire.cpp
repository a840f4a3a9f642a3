// wire-wide: the socket deployment path with big pull/push frames.
//
// `run_ps_server` runs on a thread and 2 `run_worker_process` threads join
// it over a Unix socket in this process: a linear model of 512 x 256
// (~131k params), batch 8, 8 PS shards, dense ASP pushes.  Every job gets
// its own socket path under the run directory and removes it afterwards.
#include <unistd.h>

#include <cmath>
#include <exception>
#include <filesystem>
#include <future>
#include <thread>

#include "bench.h"
#include "data/synthetic.h"
#include "net/frame.h"
#include "net/ps_server.h"
#include "net/worker_process.h"
#include "nn/zoo.h"
#include "ps/threaded_runtime.h"

namespace perfbench {

namespace {

using namespace ss;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kBatch = 8;
constexpr std::size_t kShards = 8;
constexpr std::size_t kFeatures = 512;
constexpr int kClasses = 256;

struct WireRun {
  Rep rep;
  PsServerResult server;
  std::vector<WorkerProcessResult> workers;
};

class WireWide final : public WorkloadRunner {
 public:
  explicit WireWide(const Options& opt) : opt_(opt) {
    spec_.num_classes = kClasses;
    spec_.feature_dim = kFeatures;
    spec_.train_size = opt.tiny ? 1024 : 4096;
    spec_.test_size = opt.tiny ? 512 : 1024;
    spec_.modes_per_class = 1;
    spec_.class_separation = 0.4;
    spec_.label_noise = 0.02;
    spec_.seed = opt.seed;
    steps_ = opt.tiny ? 32 : 320;
  }

  Rep run_job() override {
    last_ = run(kWorkers, steps_);
    Rep& rep = last_.rep;
    const PsServerResult& s = last_.server;
    const std::int64_t want = static_cast<std::int64_t>(kWorkers) * steps_;
    rep.check(s.total_updates == want, "total_updates " + std::to_string(s.total_updates) +
                                           " != " + std::to_string(want));
    rep.check(s.workers_joined == kWorkers,
              "workers_joined " + std::to_string(s.workers_joined) + " != " +
                  std::to_string(kWorkers));
    rep.check(s.workers_evicted == 0, "workers_evicted " + std::to_string(s.workers_evicted));
    bool drained = last_.workers.size() == kWorkers;
    for (const WorkerProcessResult& w : last_.workers) drained = drained && w.drained;
    rep.check(drained, "every worker drained");
    bool finite = !s.final_params.empty();
    for (const float p : s.final_params) finite = finite && std::isfinite(p);
    rep.check(finite, "final params finite");
    return rep;
  }

  void reference_runs(const std::vector<Rep>& untraced, Fields& out) override {
    const WireRun single = run(1, steps_ / 2);
    const double single_rate = single.rep.samples / single.rep.job_wall_s;
    std::vector<double> rates;
    for (const Rep& r : untraced) rates.push_back(r.samples / r.job_wall_s);
    out.emplace_back("ps.scaling_eff", median(rates) / (kWorkers * single_rate));
  }

  void layer_metrics(const Rep& traced, Fields& out) override {
    const DataSplit split = make_synthetic(spec_);
    Rng rng(opt_.seed);
    Model model = make_model(ModelArch::kLinear, kFeatures, kClasses, rng);
    const std::vector<float> params = model.get_params();

    tensor_probe(out);
    std::vector<std::uint32_t> idx(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) idx[i] = static_cast<std::uint32_t>(i * 97);
    Tensor x({kBatch, kFeatures});
    std::vector<int> y(kBatch);
    split.train.gather(idx, x, y);
    std::vector<float> grad(params.size());
    out.emplace_back("nn.grad_ms", 1e3 * probe("nn", "gradient_at", 100, [&] {
                       model.gradient_at(params, x, y, grad);
                     }));
    std::vector<Model> replicas;
    std::vector<std::vector<float>> grads(kWorkers, std::vector<float>(params.size()));
    for (std::size_t w = 0; w < kWorkers; ++w) replicas.push_back(model.clone());
    out.emplace_back("nn.grad_ms_contended",
                     1e3 * probe_contended("nn", "gradient_at", kWorkers, 200, [&](std::size_t w) {
                       replicas[w].gradient_at(params, x, y, grads[w]);
                     }));
    out.emplace_back("nn.eval_ms", 1e3 * probe("nn", "evaluate_accuracy", 2, [&] {
                       (void)model.evaluate_accuracy(split.test);
                     }, 3));
    out.emplace_back("data.gather_us",
                     1e6 * probe("data", "gather", 2000, [&] { split.train.gather(idx, x, y); }));
    out.emplace_back("data.synth_s",
                     probe("data", "make_synthetic", 1, [&] { (void)make_synthetic(spec_); }, 3));
    SharedParameterServer ps(params, 0.9, kShards);
    ps_probes(ps, params.size(), out);

    // net: frame codec at the two big payloads of a step (PullReply from the
    // server, PushDense from a worker), mean per frame.
    PullReplyMsg pull;
    pull.versions.assign(kShards, 7);
    pull.params = params;
    PushDenseMsg push;
    push.lr = 0.05;
    push.pull_versions.assign(kShards, 7);
    push.grad = grad;
    const Frame frames[2] = {pull.encode(), push.encode()};
    const std::vector<std::uint8_t> bytes[2] = {encode_frame(frames[0]), encode_frame(frames[1])};
    double enc = 0, dec = 0;
    for (int f = 0; f < 2; ++f) {
      enc += probe("net", "encode_frame", 50, [&] { (void)encode_frame(frames[f]); });
      dec += probe("net", "decode_frame", 50, [&] { (void)decode_frame(bytes[f]); });
    }
    out.emplace_back("net.frame_encode_us", 1e6 * enc / 2);
    out.emplace_back("net.frame_decode_us", 1e6 * dec / 2);

    const PsServerResult& s = last_.server;
    double push_bytes = 0;
    for (const WorkerProcessResult& w : last_.workers) push_bytes += static_cast<double>(w.push_bytes);
    const double updates = static_cast<double>(std::max<std::int64_t>(1, s.total_updates));
    out.emplace_back("ps.updates", static_cast<double>(s.total_updates));
    out.emplace_back("ps.asp_updates_per_s", updates / traced.job_wall_s);
    out.emplace_back("ps.push_bytes_per_update", push_bytes / updates);
    out.emplace_back("elastic.updates_lost", static_cast<double>(s.updates_lost));
  }

 private:
  WireRun run(std::size_t workers, std::int64_t steps) {
    WireRun out;
    Rep& rep = out.rep;
    const Clock::time_point t0 = Clock::now();
    const std::filesystem::path sock = std::filesystem::path(opt_.run_dir) /
                                       ("ps-" + std::to_string(static_cast<long>(getpid())) +
                                        "-" + std::to_string(jobs_++) + ".sock");
    PsServerConfig cfg;
    cfg.listen = "unix:" + sock.string();
    cfg.num_workers = workers;
    cfg.steps_per_worker = steps;
    cfg.batch_size = kBatch;
    cfg.lr = 0.05;
    cfg.momentum = 0.9;
    cfg.seed = opt_.seed;
    cfg.num_ps_shards = kShards;
    cfg.arch = ModelArch::kLinear;
    cfg.data = spec_;
    // Resolves true once the server listens, false if it failed before that.
    std::promise<bool> listening;
    bool signalled = false;  // touched by the server thread only
    cfg.on_listening = [&](const std::string&) {
      signalled = true;
      listening.set_value(true);
    };
    std::exception_ptr server_error;  // read only after the server thread is joined
    std::thread server([&] {
      try {
        const Span span("net", "run_ps_server", /*blocking=*/true);
        out.server = run_ps_server(cfg);
      } catch (...) {
        server_error = std::current_exception();
        if (!signalled) listening.set_value(false);
      }
    });
    const bool up = listening.get_future().get();
    const Clock::time_point t_listen = Clock::now();

    std::vector<std::exception_ptr> worker_errors(workers);
    out.workers.resize(workers);
    std::vector<std::thread> pool;
    if (up) {
      for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
          try {
            const Span span("net", "run_worker_process", /*blocking=*/true);
            out.workers[w] = run_worker_process({"unix:" + sock.string()});
          } catch (...) {
            worker_errors[w] = std::current_exception();
          }
        });
      }
    }
    for (auto& th : pool) th.join();
    server.join();
    const Clock::time_point t_end = Clock::now();
    std::error_code ec;
    std::filesystem::remove(sock, ec);
    if (server_error) std::rethrow_exception(server_error);
    for (const auto& e : worker_errors)
      if (e) std::rethrow_exception(e);

    rep.setup_s = seconds_between(t0, t_listen);
    rep.job_wall_s = seconds_between(t_listen, t_end);
    rep.samples = static_cast<double>(out.server.total_updates) * kBatch;
    rep.final_acc = out.server.final_accuracy;
    double stale = 0, steps_done = 0;
    for (const WorkerProcessResult& w : out.workers) {
      stale += w.mean_staleness * static_cast<double>(w.steps);
      steps_done += static_cast<double>(w.steps);
    }
    rep.staleness = steps_done > 0 ? stale / steps_done : 0.0;
    return out;
  }

  Options opt_;
  SyntheticSpec spec_;
  std::int64_t steps_ = 0;
  int jobs_ = 0;
  WireRun last_;
};

}  // namespace

std::unique_ptr<WorkloadRunner> make_wire_wide(const Options& opt) {
  return std::make_unique<WireWide>(opt);
}

}  // namespace perfbench
