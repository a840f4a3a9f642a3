#include "net/socket_transport.h"

#include "common/error.h"

namespace ss {

namespace {

/// Read a reply header.  A kError reply becomes NetError("ps_server: ...");
/// any other type but `expected` is skipped and rejected.
void expect_reply(FrameReader& in, MsgType expected) {
  if (!in.next()) throw NetError("SocketTransport: server closed the connection");
  if (in.type() == MsgType::kError) {
    std::vector<std::uint8_t> payload;
    in.rest(payload);
    throw NetError("ps_server: " + ErrorMsg::decode(payload).message);
  }
  if (in.type() != expected) {
    in.skip();
    throw NetError("SocketTransport: unexpected reply type " +
                   std::to_string(static_cast<std::uint16_t>(in.type())));
  }
}

/// Receive a whole reply of type `expected`.
Frame receive(Socket& sock, MsgType expected) {
  FrameReader in(sock);
  expect_reply(in, expected);
  Frame reply{expected, {}};
  in.rest(reply.payload);
  return reply;
}

}  // namespace

SocketTransport::SocketTransport(const std::string& endpoint, AssignmentMsg& assignment)
    : sock_(connect_endpoint(endpoint)) {
  assignment = handshake();
}

SocketTransport::SocketTransport(Socket sock, AssignmentMsg& assignment)
    : sock_(std::move(sock)) {
  assignment = handshake();
}

AssignmentMsg SocketTransport::handshake() {
  const Frame reply = rpc(HelloMsg{}.encode(), MsgType::kAssignment);
  const AssignmentMsg assignment = AssignmentMsg::decode(reply.payload);
  num_params_ = assignment.num_params;
  num_shards_ = assignment.num_shards;
  return assignment;
}

Frame SocketTransport::rpc(const Frame& request, MsgType expected) {
  send_frame(sock_, request);
  return receive(sock_, expected);
}

void SocketTransport::pull(std::span<float> out) {
  std::vector<std::int64_t> versions;
  pull_with_versions(out, versions);
}

void SocketTransport::pull_with_versions(std::span<float> out,
                                         std::vector<std::int64_t>& versions) {
  send_frame(sock_, make_empty_frame(MsgType::kPull));
  FrameReader in(sock_);
  expect_reply(in, MsgType::kPullReply);
  try {
    read_pull_reply(in, out, versions, num_shards_);
  } catch (const NetError&) {
    in.skip();  // keep the connection on a frame boundary
    throw;
  }
}

std::int64_t SocketTransport::push(std::span<const float> grad, double lr,
                                   std::span<const std::int64_t> pull_versions) {
  send_push_dense(sock_, lr, pull_versions, grad);
  return PushReplyMsg::decode(receive(sock_, MsgType::kPushReply).payload).staleness;
}

std::int64_t SocketTransport::push_compressed(const CompressedPush& push, double lr,
                                              std::span<const std::int64_t> pull_versions) {
  send_push_compressed(sock_, lr, pull_versions, push);
  return PushReplyMsg::decode(receive(sock_, MsgType::kPushReply).payload).staleness;
}

std::int64_t SocketTransport::push_scalar(std::span<const float> grad, double lr,
                                          std::int64_t pull_version) {
  // The scalar compatibility push is a dense push against a flattened
  // version vector (the same collapse SharedParameterServer applies).
  const std::vector<std::int64_t> versions(num_shards_, pull_version);
  return push(grad, lr, versions);
}

std::int64_t SocketTransport::version() {
  const Frame reply = rpc(make_empty_frame(MsgType::kVersionRequest), MsgType::kVersionReply);
  return VersionReplyMsg::decode(reply.payload).version;
}

Checkpoint SocketTransport::snapshot_checkpoint(std::int64_t logical_step) {
  CheckpointRequestMsg msg;
  msg.logical_step = logical_step;
  const Frame reply = rpc(msg.encode(), MsgType::kCheckpointReply);
  return Checkpoint::deserialize(reply.payload);
}

void SocketTransport::restore_checkpoint(const Checkpoint& ckpt) {
  Frame request;
  request.type = MsgType::kRestoreRequest;
  request.payload = ckpt.serialize();
  (void)rpc(request, MsgType::kOk);
}

bool SocketTransport::drain_arrive(std::int64_t local_steps) {
  DrainArriveMsg msg;
  msg.local_steps = local_steps;
  const Frame reply = rpc(msg.encode(), MsgType::kDrainRelease);
  return DrainReleaseMsg::decode(reply.payload).done;
}

void SocketTransport::bye() {
  send_frame(sock_, make_empty_frame(MsgType::kBye));
  sock_.close();
}

}  // namespace ss
