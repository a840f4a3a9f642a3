#include "net/frame.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "net/socket.h"

namespace ss {
namespace {

// ---------------------------------------------------------------------------
// Round trips: every message type encodes to a frame whose payload decodes
// back to an equal value.  Fields use distinct, non-default values so a
// swapped or skipped field cannot round-trip by accident.
// ---------------------------------------------------------------------------

TEST(NetFrame, FrameEnvelopeRoundTrips) {
  Frame f;
  f.type = MsgType::kPushDense;
  f.payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> bytes = encode_frame(f);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + f.payload.size());
  const Frame back = decode_frame(bytes);
  EXPECT_EQ(back.type, f.type);
  EXPECT_EQ(back.payload, f.payload);
}

TEST(NetFrame, EmptyPayloadFrameRoundTrips) {
  const std::vector<std::uint8_t> bytes = encode_frame(make_empty_frame(MsgType::kBye));
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);
  const Frame back = decode_frame(bytes);
  EXPECT_EQ(back.type, MsgType::kBye);
  EXPECT_TRUE(back.payload.empty());
}

TEST(NetFrame, HelloRoundTrips) {
  HelloMsg m;
  m.protocol_version = 7;
  const Frame f = m.encode();
  EXPECT_EQ(f.type, MsgType::kHello);
  EXPECT_EQ(HelloMsg::decode(f.payload).protocol_version, 7);
}

TEST(NetFrame, AssignmentRoundTrips) {
  AssignmentMsg m;
  m.worker = 3;
  m.num_workers = 5;
  m.num_params = 1234;
  m.num_shards = 4;
  m.steps_per_worker = 777;
  m.batch_size = 48;
  m.lr = 0.125;
  m.momentum = 0.875;
  m.seed = 424242;
  m.arch = ModelArch::kResNet32Lite;
  m.compression = CompressionSpec::topk(0.05);
  m.data = SyntheticSpec::cifar100_like();
  const Frame f = m.encode();
  EXPECT_EQ(f.type, MsgType::kAssignment);
  const AssignmentMsg b = AssignmentMsg::decode(f.payload);
  EXPECT_EQ(b.worker, m.worker);
  EXPECT_EQ(b.num_workers, m.num_workers);
  EXPECT_EQ(b.num_params, m.num_params);
  EXPECT_EQ(b.num_shards, m.num_shards);
  EXPECT_EQ(b.steps_per_worker, m.steps_per_worker);
  EXPECT_EQ(b.batch_size, m.batch_size);
  EXPECT_DOUBLE_EQ(b.lr, m.lr);
  EXPECT_DOUBLE_EQ(b.momentum, m.momentum);
  EXPECT_EQ(b.seed, m.seed);
  EXPECT_EQ(b.arch, m.arch);
  EXPECT_EQ(b.compression.kind, CodecKind::kTopK);
  EXPECT_DOUBLE_EQ(b.compression.topk_fraction, 0.05);
  EXPECT_EQ(b.data.num_classes, m.data.num_classes);
  EXPECT_EQ(b.data.feature_dim, m.data.feature_dim);
  EXPECT_EQ(b.data.train_size, m.data.train_size);
  EXPECT_EQ(b.data.test_size, m.data.test_size);
  EXPECT_EQ(b.data.modes_per_class, m.data.modes_per_class);
  EXPECT_DOUBLE_EQ(b.data.class_separation, m.data.class_separation);
  EXPECT_DOUBLE_EQ(b.data.within_stddev, m.data.within_stddev);
  EXPECT_DOUBLE_EQ(b.data.label_noise, m.data.label_noise);
  EXPECT_EQ(b.data.seed, m.data.seed);
}

TEST(NetFrame, PullReplyRoundTrips) {
  PullReplyMsg m;
  m.versions = {5, 6, 7};
  m.params = {1.5f, -2.5f, 0.0f, 99.0f};
  const Frame f = m.encode();
  EXPECT_EQ(f.type, MsgType::kPullReply);
  const PullReplyMsg b = PullReplyMsg::decode(f.payload);
  EXPECT_EQ(b.versions, m.versions);
  EXPECT_EQ(b.params, m.params);
}

TEST(NetFrame, PushDenseRoundTrips) {
  PushDenseMsg m;
  m.lr = 0.03;
  m.pull_versions = {9, 9};
  m.grad = {0.25f, -0.5f, 1.0f};
  const Frame f = m.encode();
  EXPECT_EQ(f.type, MsgType::kPushDense);
  const PushDenseMsg b = PushDenseMsg::decode(f.payload);
  EXPECT_DOUBLE_EQ(b.lr, m.lr);
  EXPECT_EQ(b.pull_versions, m.pull_versions);
  EXPECT_EQ(b.grad, m.grad);
}

TEST(NetFrame, PushCompressedDenseRoundTrips) {
  PushCompressedMsg m;
  m.lr = 0.02;
  m.pull_versions = {3};
  m.push.format = CompressedPush::Format::kDense;
  m.push.num_params = 4;
  m.push.wire_size = 6;
  m.push.values = {1.0f, 0.0f, -1.0f, 2.0f};
  const Frame f = m.encode();
  EXPECT_EQ(f.type, MsgType::kPushCompressed);
  const PushCompressedMsg b = PushCompressedMsg::decode(f.payload);
  EXPECT_DOUBLE_EQ(b.lr, m.lr);
  EXPECT_EQ(b.pull_versions, m.pull_versions);
  EXPECT_EQ(b.push.format, CompressedPush::Format::kDense);
  EXPECT_EQ(b.push.num_params, 4u);
  EXPECT_EQ(b.push.wire_size, 6u);
  EXPECT_EQ(b.push.values, m.push.values);
}

TEST(NetFrame, PushCompressedSparseRoundTrips) {
  PushCompressedMsg m;
  m.lr = 0.01;
  m.pull_versions = {1, 2};
  m.push.format = CompressedPush::Format::kSparse;
  m.push.num_params = 100;
  m.push.wire_size = 16;
  m.push.values = {0.5f, -0.5f};
  m.push.indices = {7, 42};
  const PushCompressedMsg b = PushCompressedMsg::decode(m.encode().payload);
  EXPECT_EQ(b.push.format, CompressedPush::Format::kSparse);
  EXPECT_EQ(b.push.indices, m.push.indices);
  EXPECT_EQ(b.push.values, m.push.values);
}

TEST(NetFrame, SmallMessagesRoundTrip) {
  PushReplyMsg pr;
  pr.staleness = -3;
  EXPECT_EQ(PushReplyMsg::decode(pr.encode().payload).staleness, -3);

  DrainArriveMsg da;
  da.local_steps = 512;
  EXPECT_EQ(DrainArriveMsg::decode(da.encode().payload).local_steps, 512);

  DrainReleaseMsg dr;
  dr.done = false;
  EXPECT_FALSE(DrainReleaseMsg::decode(dr.encode().payload).done);

  CheckpointRequestMsg cr;
  cr.logical_step = 4096;
  EXPECT_EQ(CheckpointRequestMsg::decode(cr.encode().payload).logical_step, 4096);

  VersionReplyMsg vr;
  vr.version = 1 << 20;
  EXPECT_EQ(VersionReplyMsg::decode(vr.encode().payload).version, 1 << 20);

  ErrorMsg em;
  em.message = "shard layout mismatch";
  EXPECT_EQ(ErrorMsg::decode(em.encode().payload).message, em.message);
}

// ---------------------------------------------------------------------------
// Malformed frames: every corruption decodes to a typed NetError whose
// message names the failure — never a crash, never a silently-wrong value.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> valid_frame_bytes() {
  PushReplyMsg m;
  m.staleness = 1;
  return encode_frame(m.encode());
}

struct MalformedCase {
  const char* name;
  std::vector<std::uint8_t> bytes;
  const char* expect_substr;
};

std::vector<MalformedCase> malformed_cases() {
  std::vector<MalformedCase> cases;

  {
    std::vector<std::uint8_t> b = valid_frame_bytes();
    b.resize(kFrameHeaderBytes - 3);  // header cut short
    cases.push_back({"truncated_header", std::move(b), "truncated header"});
  }
  {
    std::vector<std::uint8_t> b = valid_frame_bytes();
    b[0] ^= 0xFF;  // corrupt magic
    cases.push_back({"bad_magic", std::move(b), "bad magic"});
  }
  {
    std::vector<std::uint8_t> b = valid_frame_bytes();
    b[4] = 0x2A;  // protocol version 42
    cases.push_back({"bad_version", std::move(b), "unsupported protocol version"});
  }
  {
    std::vector<std::uint8_t> b = valid_frame_bytes();
    b[6] = 0xEE;  // type 0xEE: past kError
    cases.push_back({"unknown_type", std::move(b), "unknown message type"});
  }
  {
    std::vector<std::uint8_t> b = valid_frame_bytes();
    b[6] = 0;  // type 0: below kHello
    cases.push_back({"zero_type", std::move(b), "unknown message type"});
  }
  {
    std::vector<std::uint8_t> b = valid_frame_bytes();
    const std::uint64_t huge = kMaxFramePayload + 1;
    std::memcpy(b.data() + 8, &huge, sizeof(huge));  // length past the cap
    cases.push_back({"length_overflow", std::move(b), "exceeds"});
  }
  {
    std::vector<std::uint8_t> b = valid_frame_bytes();
    b.pop_back();  // payload shorter than the header claims
    cases.push_back({"truncated_payload", std::move(b), "truncated payload"});
  }
  {
    std::vector<std::uint8_t> b = valid_frame_bytes();
    b.push_back(0xAB);  // payload longer than the header claims
    cases.push_back({"overlong_payload", std::move(b), "trailing bytes"});
  }
  return cases;
}

TEST(NetFrame, MalformedFramesThrowTypedErrors) {
  for (const MalformedCase& c : malformed_cases()) {
    try {
      (void)decode_frame(c.bytes);
      FAIL() << c.name << ": decoded without error";
    } catch (const NetError& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_substr), std::string::npos)
          << c.name << ": got '" << e.what() << "'";
    }
  }
}

struct MalformedPayloadCase {
  const char* name;
  Frame frame;
  const char* expect_substr;
};

std::vector<MalformedPayloadCase> malformed_payload_cases() {
  std::vector<MalformedPayloadCase> cases;

  {
    // Vector count claims more elements than bytes present: must be caught
    // before the resize, not by reading past the buffer.
    PullReplyMsg m;
    m.versions = {1};
    m.params = {1.0f, 2.0f};
    Frame f = m.encode();
    const std::uint64_t lie = 1u << 20;
    std::memcpy(f.payload.data() + 0, &lie, sizeof(lie));  // versions count
    cases.push_back({"vector_count_lie", std::move(f), "truncated payload"});
  }
  {
    PushDenseMsg m;
    m.pull_versions = {1};
    m.grad = {1.0f};
    Frame f = m.encode();
    f.payload.push_back(0);  // one byte of trailing junk after the last vec
    cases.push_back({"payload_trailing_bytes", std::move(f), "trailing bytes"});
  }
  {
    PushDenseMsg m;
    m.pull_versions.clear();  // staleness accounting needs >= 1 shard version
    m.grad = {1.0f};
    cases.push_back({"empty_version_vector", m.encode(), "empty version vector"});
  }
  {
    PushCompressedMsg m;
    m.pull_versions = {1};
    m.push.format = CompressedPush::Format::kSparse;
    m.push.num_params = 10;
    m.push.values = {1.0f, 2.0f};
    m.push.indices = {3, 99};  // 99 out of range for 10 params
    cases.push_back({"sparse_index_out_of_range", m.encode(), "PushCompressed"});
  }
  {
    PushCompressedMsg m;
    m.pull_versions = {1};
    m.push.format = CompressedPush::Format::kSparse;
    m.push.num_params = 10;
    m.push.values = {1.0f, 2.0f};
    m.push.indices = {5, 3};  // violates the strictly-ascending contract
    cases.push_back({"sparse_indices_descending", m.encode(), "PushCompressed"});
  }
  {
    PushCompressedMsg m;
    m.pull_versions = {1};
    m.push.format = CompressedPush::Format::kDense;
    m.push.num_params = 8;
    m.push.values = {1.0f, 2.0f};  // dense push must carry num_params values
    cases.push_back({"dense_length_mismatch", m.encode(), "PushCompressed"});
  }
  {
    Frame f = make_empty_frame(MsgType::kAssignment);
    cases.push_back({"assignment_empty_payload", std::move(f), "truncated payload"});
  }
  return cases;
}

TEST(NetFrame, MalformedPayloadsThrowTypedErrors) {
  for (const MalformedPayloadCase& c : malformed_payload_cases()) {
    try {
      switch (c.frame.type) {
        case MsgType::kPullReply:
          (void)PullReplyMsg::decode(c.frame.payload);
          break;
        case MsgType::kPushDense:
          (void)PushDenseMsg::decode(c.frame.payload);
          break;
        case MsgType::kPushCompressed:
          (void)PushCompressedMsg::decode(c.frame.payload);
          break;
        case MsgType::kAssignment:
          (void)AssignmentMsg::decode(c.frame.payload);
          break;
        default:
          FAIL() << c.name << ": case table covers no decoder for this type";
      }
      FAIL() << c.name << ": decoded without error";
    } catch (const NetError& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_substr), std::string::npos)
          << c.name << ": got '" << e.what() << "'";
    }
  }
}

TEST(NetFrame, AssignmentRejectsOutOfRangeEnums) {
  AssignmentMsg m;
  m.worker = 0;
  m.num_workers = 1;
  Frame f = m.encode();
  // arch byte sits right after worker(4) + five u64/i64 fields (40) + two
  // doubles (16) + seed (8) = offset 68.
  Frame bad_arch = f;
  bad_arch.payload[68] = 0x7F;
  EXPECT_THROW((void)AssignmentMsg::decode(bad_arch.payload), NetError);
  Frame bad_codec = f;
  bad_codec.payload[69] = 0x7F;
  EXPECT_THROW((void)AssignmentMsg::decode(bad_codec.payload), NetError);
}

TEST(NetFrame, AssignmentRejectsWorkerSlotOutOfRange) {
  AssignmentMsg m;
  m.worker = 4;
  m.num_workers = 4;  // valid slots are 0..3
  EXPECT_THROW((void)AssignmentMsg::decode(m.encode().payload), NetError);
}

// ---------------------------------------------------------------------------
// The socket layer's gather send and streaming receive (net/socket.h): the
// same bytes as encode_frame, and the same strictness as the decoders.
// ---------------------------------------------------------------------------

std::pair<Socket, Socket> socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) throw NetError("socketpair failed");
  return {Socket(fds[0]), Socket(fds[1])};
}

/// Check that `send` writes exactly `want` to one end of a socket pair.  The
/// writer runs on its own thread so frames larger than the socket buffer go
/// out in several writes.
void expect_sent(const std::function<void(Socket&)>& send, const std::vector<std::uint8_t>& want) {
  auto [tx, rx] = socket_pair();
  std::thread writer([&send, tx = std::move(tx)]() mutable {
    try {
      send(tx);
    } catch (const NetError&) {
      // The reader sees the short stream and reports it.
    }
    tx.close();
  });
  std::vector<std::uint8_t> got(want.size());
  bool more = false;
  try {
    (void)rx.recv_all(got.data(), got.size(), /*eof_ok=*/false);
    std::uint8_t extra = 0;
    more = rx.recv_all(&extra, 1, /*eof_ok=*/true);
  } catch (const NetError& e) {
    ADD_FAILURE() << "short frame: " << e.what();
  }
  writer.join();
  EXPECT_FALSE(more) << "bytes past the encoded frame";
  EXPECT_EQ(got, want);
}

/// One end of a socket pair holding `bytes` followed by EOF, ready to read.
Socket loaded_socket(std::vector<std::uint8_t> bytes) {
  auto [tx, rx] = socket_pair();
  iovec all{bytes.data(), bytes.size()};
  tx.send_all(std::span<iovec>(&all, 1));  // small corpus frames fit the buffer
  return std::move(rx);
}

std::vector<float> ramp(std::size_t n, float scale) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = scale * static_cast<float>(i) - 3.0f;
  return v;
}

TEST(NetFrame, GatherSendWritesTheEncodedBytes) {
  // Larger than a Unix socket's buffer: the frame crosses in several chunks
  // while the reader drains it.
  PullReplyMsg pull;
  pull.versions = {4, 5, 6, 7, 8, 9, 10, 11};
  pull.params = ramp(300'000, 0.25f);
  expect_sent([&](Socket& s) { send_pull_reply(s, pull.versions, pull.params); },
              encode_frame(pull.encode()));

  PushDenseMsg push;
  push.lr = 0.05;
  push.pull_versions = {3, 3};
  push.grad = ramp(1'000, -0.5f);
  expect_sent([&](Socket& s) { send_push_dense(s, push.lr, push.pull_versions, push.grad); },
              encode_frame(push.encode()));

  PushCompressedMsg dense;
  dense.lr = 0.02;
  dense.pull_versions = {1};
  dense.push.format = CompressedPush::Format::kDense;
  dense.push.num_params = 64;
  dense.push.wire_size = 20;
  dense.push.values = ramp(64, 1.0f);
  expect_sent(
      [&](Socket& s) { send_push_compressed(s, dense.lr, dense.pull_versions, dense.push); },
      encode_frame(dense.encode()));

  PushCompressedMsg sparse;
  sparse.lr = 0.01;
  sparse.pull_versions = {1, 2};
  sparse.push.format = CompressedPush::Format::kSparse;
  sparse.push.num_params = 100;
  sparse.push.wire_size = 16;
  sparse.push.values = {0.5f, -0.5f};
  sparse.push.indices = {7, 42};
  expect_sent(
      [&](Socket& s) { send_push_compressed(s, sparse.lr, sparse.pull_versions, sparse.push); },
      encode_frame(sparse.encode()));

  // Whole frames (the one-part case) and empty payloads take the same path.
  ErrorMsg err;
  err.message = "shard layout mismatch";
  expect_sent([&](Socket& s) { send_frame(s, err.encode()); }, encode_frame(err.encode()));
  expect_sent([&](Socket& s) { send_frame(s, make_empty_frame(MsgType::kPull)); },
              encode_frame(make_empty_frame(MsgType::kPull)));
}

TEST(NetFrame, StreamedPullAndPushRoundTrip) {
  PullReplyMsg pull;
  pull.versions = {9, 8, 7};
  pull.params = ramp(5'000, 0.125f);
  PushDenseMsg push;
  push.lr = 0.125;
  push.pull_versions = {1, 2, 3};
  push.grad = ramp(5'000, -1.0f);
  std::vector<std::uint8_t> bytes = encode_frame(pull.encode());
  const std::vector<std::uint8_t> second = encode_frame(push.encode());
  bytes.insert(bytes.end(), second.begin(), second.end());
  Socket rx = loaded_socket(bytes);

  FrameReader in(rx);
  ASSERT_TRUE(in.next());
  ASSERT_EQ(in.type(), MsgType::kPullReply);
  std::vector<float> params(pull.params.size());
  std::vector<std::int64_t> versions;
  read_pull_reply(in, params, versions, 3);
  EXPECT_EQ(params, pull.params);
  EXPECT_EQ(versions, pull.versions);

  ASSERT_TRUE(in.next());
  ASSERT_EQ(in.type(), MsgType::kPushDense);
  std::vector<float> grad(push.grad.size());
  EXPECT_DOUBLE_EQ(read_push_dense(in, grad, versions, 3), push.lr);
  EXPECT_EQ(grad, push.grad);
  EXPECT_EQ(versions, push.pull_versions);
  EXPECT_FALSE(in.next());  // clean EOF on the frame boundary
}

TEST(NetFrame, StreamingReaderRejectsMalformedFrames) {
  for (const MalformedCase& c : malformed_cases()) {
    Socket rx = loaded_socket(c.bytes);
    FrameReader in(rx);
    std::vector<std::uint8_t> payload;
    // An over-long frame reads as a good frame followed by a cut-off header.
    EXPECT_THROW(
        {
          while (in.next()) in.rest(payload);
        },
        NetError)
        << c.name;
  }
}

TEST(NetFrame, StreamingReaderRejectsMalformedPayloads) {
  // Destinations carry a guard tail the reader must never touch.  The
  // corpus' PullReply frames hold 1 shard and 2 params, its PushDense
  // frames 1 shard and 1 gradient value; other types are received whole
  // and decoded, as the server does.
  constexpr float kGuard = 12345.0f;
  for (const MalformedPayloadCase& c : malformed_payload_cases()) {
    Socket rx = loaded_socket(encode_frame(c.frame));
    FrameReader in(rx);
    ASSERT_TRUE(in.next()) << c.name;
    std::vector<float> dst(2 + 16, kGuard);
    std::vector<std::int64_t> versions;
    try {
      switch (in.type()) {
        case MsgType::kPullReply:
          read_pull_reply(in, std::span<float>(dst).first(2), versions, 1);
          break;
        case MsgType::kPushDense:
          (void)read_push_dense(in, std::span<float>(dst).first(1), versions, 1);
          break;
        default: {
          std::vector<std::uint8_t> payload;
          in.rest(payload);
          if (in.type() == MsgType::kPushCompressed)
            (void)PushCompressedMsg::decode(payload);
          else
            (void)AssignmentMsg::decode(payload);
        }
      }
      ADD_FAILURE() << c.name << ": streamed without error";
    } catch (const NetError& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_substr), std::string::npos)
          << c.name << ": got '" << e.what() << "'";
    }
    for (std::size_t i = 2; i < dst.size(); ++i) EXPECT_EQ(dst[i], kGuard) << c.name;
  }
}

TEST(NetFrame, StreamingReaderChecksShapeBeforeReading) {
  PullReplyMsg pull;
  pull.versions = {1, 1};
  pull.params = ramp(8, 1.0f);
  PushDenseMsg push;
  push.pull_versions = {1, 1};
  push.grad = ramp(8, 1.0f);
  struct ShapeCase {
    const char* name;
    Frame frame;
    std::size_t dst_size;
    std::size_t num_shards;
    const char* expect_substr;
  };
  const ShapeCase cases[] = {
      {"pull_too_many_params", pull.encode(), 4, 2, "PullReply: parameter count mismatch"},
      {"pull_too_few_params", pull.encode(), 16, 2, "PullReply: parameter count mismatch"},
      {"pull_wrong_shards", pull.encode(), 8, 3, "PullReply: version count mismatch"},
      {"push_too_long", push.encode(), 4, 2, "PushDense: gradient length mismatch"},
      {"push_wrong_shards", push.encode(), 8, 1, "PushDense: version count mismatch"},
  };
  for (const ShapeCase& c : cases) {
    // A good frame follows the bad one: after skip() it must read cleanly.
    std::vector<std::uint8_t> bytes = encode_frame(c.frame);
    const std::vector<std::uint8_t> next = encode_frame(make_empty_frame(MsgType::kOk));
    bytes.insert(bytes.end(), next.begin(), next.end());
    Socket rx = loaded_socket(bytes);
    FrameReader in(rx);
    ASSERT_TRUE(in.next());
    std::vector<float> dst(c.dst_size, -1.0f);
    std::vector<std::int64_t> versions;
    try {
      if (c.frame.type == MsgType::kPullReply)
        read_pull_reply(in, dst, versions, c.num_shards);
      else
        (void)read_push_dense(in, dst, versions, c.num_shards);
      ADD_FAILURE() << c.name << ": streamed without error";
    } catch (const NetError& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_substr), std::string::npos)
          << c.name << ": got '" << e.what() << "'";
    }
    for (const float v : dst) EXPECT_EQ(v, -1.0f) << c.name << ": wrote before the check";
    in.skip();
    ASSERT_TRUE(in.next()) << c.name;
    EXPECT_EQ(in.type(), MsgType::kOk) << c.name;
    EXPECT_FALSE(in.next()) << c.name;
  }
}

}  // namespace
}  // namespace ss
