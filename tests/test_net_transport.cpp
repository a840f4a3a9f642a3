#include "net/socket_transport.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "net/ps_server.h"
#include "net/socket.h"
#include "net/worker_process.h"
#include "nn/zoo.h"
#include "ps/threaded_runtime.h"

namespace ss {
namespace {

// The multi-process deployment, in-process: run_ps_server on one thread and
// run_worker_process / raw SocketTransport clients on others, talking over
// real sockets.  (The ctest `multiprocess` label covers genuine process
// death with SIGKILL; these tests cover the protocol and recovery logic
// where gtest can assert on both ends' results.)

SyntheticSpec tiny_spec() {
  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  spec.train_size = 512;
  spec.test_size = 256;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.class_separation = 1.5;
  return spec;
}

std::string unique_unix_endpoint(int n) {
  return "unix:/tmp/ss_net_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(n) + ".sock";
}

/// run_ps_server on its own thread; endpoint() blocks until it listens (so
/// tcp port 0 is resolved), join() returns the result or rethrows.
class ServerHandle {
 public:
  explicit ServerHandle(PsServerConfig cfg) {
    auto listening = std::make_shared<std::promise<std::string>>();
    endpoint_ = listening->get_future();
    cfg.on_listening = [listening](const std::string& ep) { listening->set_value(ep); };
    thread_ = std::thread([this, cfg] {
      try {
        result_ = run_ps_server(cfg);
      } catch (...) {
        error_ = std::current_exception();
      }
    });
  }

  [[nodiscard]] std::string endpoint() { return endpoint_.get(); }

  PsServerResult join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
    return result_;
  }

 private:
  std::thread thread_;
  std::future<std::string> endpoint_;
  PsServerResult result_;
  std::exception_ptr error_;
};

std::future<WorkerProcessResult> launch_worker(const std::string& endpoint,
                                               std::int64_t crash_after = -1) {
  return std::async(std::launch::async, [endpoint, crash_after] {
    WorkerProcessConfig cfg;
    cfg.endpoint = endpoint;
    cfg.crash_after_steps = crash_after;
    return run_worker_process(cfg);
  });
}

TEST(NetTransport, UnixEndToEndMatchesInProcessAccuracy) {
  PsServerConfig cfg;
  cfg.listen = unique_unix_endpoint(1);
  cfg.num_workers = 2;
  cfg.steps_per_worker = 60;
  cfg.batch_size = 32;
  cfg.lr = 0.1;
  cfg.seed = 99;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);
  const std::string ep = server.endpoint();
  auto w0 = launch_worker(ep);
  auto w1 = launch_worker(ep);
  const WorkerProcessResult r0 = w0.get();
  const WorkerProcessResult r1 = w1.get();
  const PsServerResult res = server.join();

  EXPECT_EQ(res.workers_joined, 2u);
  EXPECT_EQ(res.workers_evicted, 0u);
  EXPECT_EQ(res.total_updates, 120);  // ASP: every push is an update
  EXPECT_NE(r0.worker, r1.worker);
  EXPECT_EQ(r0.steps, 60);
  EXPECT_EQ(r1.steps, 60);
  EXPECT_TRUE(r0.drained);
  EXPECT_TRUE(r1.drained);

  // Same run in-process (same seed, data, model init — the worker processes
  // mirror the threaded runtime's RNG streams): the socket deployment must
  // land in the same accuracy band.
  const DataSplit split = make_synthetic(cfg.data);
  Rng model_rng(cfg.seed);
  Model proto = make_model(cfg.arch, split.train.feature_dim(),
                           cfg.data.num_classes, model_rng);
  const double before = proto.evaluate_accuracy(split.test);
  ThreadedTrainConfig tcfg;
  tcfg.protocol = Protocol::kAsp;
  tcfg.num_workers = 2;
  tcfg.steps_per_worker = 60;
  tcfg.batch_size = 32;
  tcfg.lr = 0.1;
  tcfg.seed = 99;
  const auto inproc = threaded_train(proto, split.train, tcfg);
  Model trained = proto.clone();
  trained.set_params(inproc.final_params);
  const double inproc_acc = trained.evaluate_accuracy(split.test);

  EXPECT_GT(res.final_accuracy, before + 0.2);
  EXPECT_NEAR(res.final_accuracy, inproc_acc, 0.2);
}

TEST(NetTransport, TcpPortZeroResolvesAndServes) {
  PsServerConfig cfg;
  cfg.listen = "tcp:127.0.0.1:0";
  cfg.num_workers = 1;
  cfg.steps_per_worker = 15;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);
  const std::string ep = server.endpoint();
  EXPECT_EQ(ep.rfind("tcp:127.0.0.1:", 0), 0u) << ep;
  EXPECT_NE(ep, "tcp:127.0.0.1:0");  // the kernel-assigned port is resolved
  const WorkerProcessResult r = launch_worker(ep).get();
  const PsServerResult res = server.join();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(res.total_updates, 15);
}

TEST(NetTransport, CrashedWorkerIsEvictedAndSnapshotRestored) {
  PsServerConfig cfg;
  cfg.listen = unique_unix_endpoint(2);
  cfg.num_workers = 2;
  cfg.steps_per_worker = 40;
  cfg.snapshot_interval = 8;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);
  const std::string ep = server.endpoint();
  auto survivor = launch_worker(ep);
  auto crasher = launch_worker(ep, /*crash_after=*/5);
  const WorkerProcessResult rc = crasher.get();
  const WorkerProcessResult rs = survivor.get();
  const PsServerResult res = server.join();

  EXPECT_EQ(rc.steps, 5);
  EXPECT_FALSE(rc.drained);  // abrupt close: no drain, no Bye
  EXPECT_EQ(rs.steps, 40);
  EXPECT_TRUE(rs.drained);   // the drain completes over the survivors
  EXPECT_EQ(res.workers_joined, 2u);
  EXPECT_EQ(res.workers_evicted, 1u);
  EXPECT_GE(res.snapshots_restored, 1);
  EXPECT_GE(res.updates_lost, 0);
  // Rolled-back updates are still counted as applied; the survivor's quota
  // is a floor on the total.
  EXPECT_GE(res.total_updates, 40);
}

TEST(NetTransport, TransportRpcsRoundTripAgainstLiveServer) {
  PsServerConfig cfg;
  cfg.listen = unique_unix_endpoint(3);
  cfg.num_workers = 1;
  cfg.steps_per_worker = 10;
  cfg.seed = 42;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);

  AssignmentMsg a;
  SocketTransport tx(server.endpoint(), a);
  EXPECT_EQ(a.worker, 0u);
  EXPECT_EQ(a.num_workers, 1u);
  EXPECT_EQ(a.steps_per_worker, 10);
  ASSERT_EQ(tx.num_params(), a.num_params);
  ASSERT_GT(tx.num_params(), 0u);

  // Initial pull matches the model the server built from the shared seed.
  const DataSplit split = make_synthetic(cfg.data);
  Rng model_rng(cfg.seed);
  const Model reference = make_model(a.arch, split.train.feature_dim(),
                                     cfg.data.num_classes, model_rng);
  std::vector<float> params(tx.num_params());
  std::vector<std::int64_t> versions;
  tx.pull_with_versions(params, versions);
  EXPECT_EQ(params, reference.get_params());
  ASSERT_EQ(versions.size(), tx.num_shards());
  for (std::int64_t v : versions) EXPECT_EQ(v, 0);

  // Dense push -> version advances; staleness against a fresh pull is 0.
  const std::vector<float> grad(tx.num_params(), 0.25f);
  EXPECT_EQ(tx.push(grad, 0.05, versions), 0);
  EXPECT_EQ(tx.version(), 1);
  EXPECT_EQ(tx.push_scalar(grad, 0.05, 1), 0);
  EXPECT_EQ(tx.version(), 2);

  // Checkpoint round trip over the wire: snapshot, mutate, restore, verify.
  const Checkpoint ckpt = tx.snapshot_checkpoint(77);
  EXPECT_EQ(ckpt.global_step, 77);
  std::vector<float> at_snapshot(tx.num_params());
  tx.pull(at_snapshot);
  EXPECT_EQ(ckpt.params, at_snapshot);
  EXPECT_EQ(tx.push(grad, 0.05, std::vector<std::int64_t>(tx.num_shards(), 2)), 0);
  tx.restore_checkpoint(ckpt);
  std::vector<float> restored(tx.num_params());
  tx.pull(restored);
  EXPECT_EQ(restored, at_snapshot);

  EXPECT_TRUE(tx.drain_arrive(10));
  tx.bye();
  const PsServerResult res = server.join();
  EXPECT_EQ(res.workers_joined, 1u);
  EXPECT_EQ(res.workers_evicted, 0u);
  EXPECT_EQ(res.final_params, restored);
}

TEST(NetTransport, ServerRejectsProtocolVersionMismatch) {
  PsServerConfig cfg;
  cfg.listen = unique_unix_endpoint(4);
  cfg.num_workers = 1;
  cfg.steps_per_worker = 5;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);
  const std::string ep = server.endpoint();

  {
    // A client from "the future" must be turned away before it can touch the
    // run — and must not consume the worker slot.
    Socket sock = connect_endpoint(ep);
    HelloMsg hello;
    hello.protocol_version = 99;
    send_frame(sock, hello.encode());
    Frame reply;
    ASSERT_TRUE(recv_frame(sock, reply));
    ASSERT_EQ(reply.type, MsgType::kError);
    EXPECT_EQ(ErrorMsg::decode(reply.payload).message, "protocol version mismatch");
  }

  const WorkerProcessResult r = launch_worker(ep).get();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(server.join().workers_joined, 1u);
}

TEST(NetTransport, RequestLevelErrorsKeepTheSession) {
  PsServerConfig cfg;
  cfg.listen = unique_unix_endpoint(5);
  cfg.num_workers = 1;
  cfg.steps_per_worker = 5;
  cfg.num_ps_shards = 2;
  cfg.data = tiny_spec();
  ServerHandle server(cfg);

  Socket sock = connect_endpoint(server.endpoint());
  send_frame(sock, HelloMsg{}.encode());
  Frame reply;
  ASSERT_TRUE(recv_frame(sock, reply));
  ASSERT_EQ(reply.type, MsgType::kAssignment);
  const AssignmentMsg a = AssignmentMsg::decode(reply.payload);

  // Each bad push must be answered with an Error frame, its payload
  // discarded so the next frame still parses.
  auto expect_error = [&](const Frame& bad, const char* substr) {
    send_frame(sock, bad);
    Frame r;
    ASSERT_TRUE(recv_frame(sock, r));
    ASSERT_EQ(r.type, MsgType::kError);
    const std::string msg = ErrorMsg::decode(r.payload).message;
    EXPECT_NE(msg.find(substr), std::string::npos) << msg;
  };
  PushDenseMsg good;
  good.lr = 0.05;
  good.pull_versions.assign(a.num_shards, 0);
  good.grad.assign(a.num_params, 0.5f);

  PushDenseMsg long_grad = good;
  long_grad.grad.resize(a.num_params + 3, 0.5f);
  expect_error(long_grad.encode(), "gradient length mismatch");

  Frame overrun = good.encode();
  const std::uint64_t lie = 1u << 20;  // version count past the payload's end
  std::memcpy(overrun.payload.data() + sizeof(double), &lie, sizeof(lie));
  expect_error(overrun, "truncated payload");

  Frame trailing = good.encode();
  trailing.payload.push_back(0xAB);
  expect_error(trailing, "trailing bytes");

  // The same connection still serves a valid pull, and no bad push landed.
  send_frame(sock, make_empty_frame(MsgType::kPull));
  ASSERT_TRUE(recv_frame(sock, reply));
  ASSERT_EQ(reply.type, MsgType::kPullReply);
  const PullReplyMsg pulled = PullReplyMsg::decode(reply.payload);
  EXPECT_EQ(pulled.params.size(), a.num_params);
  EXPECT_EQ(pulled.versions, std::vector<std::int64_t>(a.num_shards, 0));

  DrainArriveMsg arrive;
  send_frame(sock, arrive.encode());
  ASSERT_TRUE(recv_frame(sock, reply));
  EXPECT_EQ(reply.type, MsgType::kDrainRelease);
  send_frame(sock, make_empty_frame(MsgType::kBye));
  const PsServerResult res = server.join();
  EXPECT_EQ(res.workers_evicted, 0u);
  EXPECT_EQ(res.total_updates, 0);
}

TEST(NetTransport, ConnectToDeadEndpointThrowsNetError) {
  AssignmentMsg a;
  EXPECT_THROW(SocketTransport("unix:/tmp/ss_net_test_no_such.sock", a), NetError);
  EXPECT_THROW(SocketTransport("tcp:127.0.0.1:1", a), NetError);
  EXPECT_THROW((void)connect_endpoint("bogus-endpoint-syntax://"), NetError);
}

}  // namespace
}  // namespace ss
