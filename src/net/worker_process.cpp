#include "net/worker_process.h"

#include <chrono>
#include <optional>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "compress/bank.h"
#include "data/batcher.h"
#include "data/synthetic.h"
#include "net/socket_transport.h"
#include "nn/zoo.h"
#include "obs/obs.h"

namespace ss {

WorkerProcessResult run_worker_process(const WorkerProcessConfig& cfg) {
  AssignmentMsg a;
  SocketTransport tx(cfg.endpoint, a);
  const auto w = static_cast<std::size_t>(a.worker);
  const bool obs_on = obs::enabled();
  obs::Counter* m_steps = nullptr;
  if (obs_on) {
    m_steps = &obs::metrics().counter("ss_worker_steps_total",
                                      "Pull->gradient->push cycles completed");
    if (obs::tracing())
      obs::tracer().set_track_name(static_cast<int>(w) + 1,
                                   "worker " + std::to_string(w));
    obs::set_thread_track(static_cast<int>(w) + 1);
  }
  log_info("worker ", a.worker, ": joined ", cfg.endpoint, " (", a.num_params,
           " params, quota ", a.steps_per_worker, " steps)");

  // Rebuild the run's inputs from the assignment alone: the training half
  // of the dataset (the server evaluates on the test half) and the model,
  // built with the same seed the server used, though only its shape
  // matters: gradient_at computes at the pulled parameters, not the local
  // ones.
  const Dataset train = make_synthetic_split(a.data, SyntheticSplit::kTrain);
  Rng model_rng(a.seed);
  Model model = make_model(a.arch, train.feature_dim(), a.data.num_classes, model_rng);
  if (model.num_params() != a.num_params)
    throw NetError("worker: model has " + std::to_string(model.num_params()) +
                   " params but the server assigned " + std::to_string(a.num_params));

  // Per-slot RNG streams, identical to the threaded runtime's initial slots.
  Rng root(a.seed);
  const auto shards = make_shards(train.size(), a.num_workers);
  MinibatchSampler sampler(shards[w % shards.size()], a.batch_size, root.fork(w + 1));
  Rng codec_rng = root.fork(a.num_workers + 1 + w);
  std::optional<CompressorBank> bank = a.compression.make_bank(a.num_workers);

  Tensor batch_x({a.batch_size, train.feature_dim()});
  std::vector<int> batch_y;
  std::vector<float> snapshot(a.num_params);
  std::vector<float> grad(a.num_params);
  std::vector<std::int64_t> pull_versions;
  std::vector<std::uint32_t> indices;
  const auto dense_bytes = static_cast<std::int64_t>(a.num_params * sizeof(float));

  WorkerProcessResult result;
  result.worker = a.worker;
  std::int64_t staleness_sum = 0;
  for (std::int64_t step = 0; step < a.steps_per_worker; ++step) {
    if (step == cfg.crash_after_steps) {
      log_warn("worker ", a.worker, ": simulated crash after ", step, " steps");
      return result;  // transport destructor closes the socket abruptly
    }
    const auto step_start = obs_on ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
    tx.pull_with_versions(snapshot, pull_versions);
    sampler.next_batch(indices);
    train.gather(indices, batch_x, batch_y);
    model.gradient_at(snapshot, batch_x, batch_y, grad);
    if (bank) {
      const CompressedPush push = bank->encode(static_cast<int>(w), grad, codec_rng);
      result.push_bytes += static_cast<std::int64_t>(push.wire_size);
      staleness_sum += tx.push_compressed(push, a.lr, pull_versions);
    } else {
      result.push_bytes += dense_bytes;
      staleness_sum += tx.push(grad, a.lr, pull_versions);
    }
    ++result.steps;
    if (obs_on) {
      m_steps->add();
      if (obs::tracing()) {
        auto& tr = obs::tracer();
        const auto t1 = std::chrono::steady_clock::now();
        tr.complete(static_cast<int>(w) + 1, "step", tr.to_us(step_start),
                    tr.to_us(t1) - tr.to_us(step_start), {obs::arg("step", step)});
      }
    }
  }
  if (result.steps > 0)
    result.mean_staleness = static_cast<double>(staleness_sum) / static_cast<double>(result.steps);

  result.drained = tx.drain_arrive(result.steps);
  tx.bye();
  log_info("worker ", a.worker, ": drained after ", result.steps, " steps");
  return result;
}

}  // namespace ss
