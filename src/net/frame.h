// Length-prefixed binary frame codec for the socket transport.
//
// Every worker <-> PS-server message is one frame:
//
//   [u32 magic "SSFR"][u16 version][u16 type][u64 payload_bytes][payload]
//
// all little-endian, payload layouts per message type below.  The codec is
// strictly validating: a malformed frame (bad magic, unknown version or
// type, length past the sanity cap, truncated or over-long payload, sparse
// indices out of range or out of order) decodes to a typed NetError — never
// a crash, never a silently-wrong message (mirroring the trace-parser's
// error contract in scenario/trace_replay.h).
//
// Payload conventions: integers are fixed-width little-endian, doubles are
// 8-byte IEEE bit patterns, vectors are [u64 count][elements].  Checkpoints
// travel as their existing format-v2 serialization (nn/checkpoint.h), and
// compressed pushes re-use CompressedPush's field set verbatim — the wire
// object the codecs were designed around finally crosses a real wire.
//
// This file defines the format; net/socket.h moves it.  The step's big
// messages (PullReply, PushDense, PushCompressed) are sent as gathered byte
// ranges straight from the caller's spans, and PullReply / PushDense are
// received field by field straight into their destination buffers, with
// the same checks as the decoders here — so a dense step copies its
// payload only where the PS snapshots under its shard locks, not through a
// `Frame` on either side.  `Frame`, `encode_frame`/`decode_frame` and the
// `*Msg` codecs remain the reference for those bytes and carry every other
// message.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "compress/compressed_push.h"
#include "compress/spec.h"
#include "data/synthetic.h"
#include "nn/zoo.h"

namespace ss {

inline constexpr std::uint32_t kFrameMagic = 0x53534652;  // "SSFR"
inline constexpr std::uint16_t kFrameVersion = 1;
/// Sanity cap on a frame payload.  Large enough for a checkpoint of a
/// 100M-parameter model (params + velocity + headers), small enough that a
/// corrupt length field fails fast instead of driving a gigabyte resize.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

/// Wire message types.  Values are part of the protocol; append only.
enum class MsgType : std::uint16_t {
  kHello = 1,        ///< worker -> ps: join the run
  kAssignment = 2,   ///< ps -> worker: slot + the full run configuration
  kPull = 3,         ///< worker -> ps: request params + version vector
  kPullReply = 4,    ///< ps -> worker: per-shard versions + parameters
  kPushDense = 5,    ///< worker -> ps: uncompressed full gradient
  kPushCompressed = 6,  ///< worker -> ps: CompressedPush (dense or sparse)
  kPushReply = 7,    ///< ps -> worker: staleness of the applied push
  kDrainArrive = 8,  ///< worker -> ps: quiesced at the drain barrier
  kDrainRelease = 9, ///< ps -> worker: barrier complete; continue or done
  kCheckpointRequest = 10,  ///< -> ps: capture a consistent snapshot
  kCheckpointReply = 11,    ///< ps ->: serialized format-v2 checkpoint
  kRestoreRequest = 12,     ///< -> ps: restore from a serialized checkpoint
  kVersionRequest = 13,     ///< -> ps: scalar version query
  kVersionReply = 14,       ///< ps ->: min shard version
  kOk = 15,          ///< generic success acknowledgement
  kBye = 16,         ///< worker -> ps: clean leave (after drain release)
  kError = 17,       ///< ps -> worker: request failed; payload = message
};

/// Human-readable message-type name ("PushDense", "DrainArrive", ...);
/// "Unknown" for values outside the enum.  For logs and trace span labels.
[[nodiscard]] const char* msg_type_name(MsgType type) noexcept;

/// One decoded frame: the type tag plus its raw payload bytes.
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

/// Frame envelope: header + payload bytes ready for the socket.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Parse a complete frame buffer (header + payload).  Throws NetError on
/// any malformation.  The socket layer reads the header and payload
/// separately (net/socket.h) but validates through the same checks.
[[nodiscard]] Frame decode_frame(std::span<const std::uint8_t> bytes);

/// Validate a frame header; returns the payload size.  Throws NetError on
/// bad magic, unsupported version, unknown type, or a length past the cap.
/// `header` must be exactly kFrameHeaderBytes long.
inline constexpr std::size_t kFrameHeaderBytes = 16;
[[nodiscard]] std::uint64_t decode_frame_header(std::span<const std::uint8_t> header,
                                                MsgType& type);

// ---------------------------------------------------------------------------
// Message payloads.  Each struct has an encode() producing a full Frame and
// a static decode(payload) validating every field.
// ---------------------------------------------------------------------------

/// Worker -> PS greeting.  `protocol_version` lets the server reject a
/// mismatched binary before anything else flows.
struct HelloMsg {
  std::uint16_t protocol_version = kFrameVersion;

  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static HelloMsg decode(std::span<const std::uint8_t> payload);
};

/// PS -> worker: the assigned slot plus the entire run configuration.  The
/// server owns the config; workers only know where to connect, which rules
/// out config drift between processes (the distributed-training analogue of
/// a bad deploy).
struct AssignmentMsg {
  std::uint32_t worker = 0;       ///< assigned slot in [0, num_workers)
  std::uint64_t num_workers = 0;
  std::uint64_t num_params = 0;
  std::uint64_t num_shards = 1;
  std::int64_t steps_per_worker = 0;
  std::uint64_t batch_size = 0;
  double lr = 0.0;
  double momentum = 0.0;
  std::uint64_t seed = 0;         ///< root seed; workers fork per-slot streams
  ModelArch arch = ModelArch::kLinear;
  CompressionSpec compression;    ///< codec every worker encodes through
  SyntheticSpec data;             ///< the dataset every worker regenerates

  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static AssignmentMsg decode(std::span<const std::uint8_t> payload);
};

/// PS -> worker: parameters + the per-shard version vector snapshotted as
/// they were copied (the exact staleness-accounting path on the wire).
struct PullReplyMsg {
  std::vector<std::int64_t> versions;
  std::vector<float> params;

  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static PullReplyMsg decode(std::span<const std::uint8_t> payload);
};

/// Worker -> PS: uncompressed full-gradient push.
struct PushDenseMsg {
  double lr = 0.0;
  std::vector<std::int64_t> pull_versions;
  std::vector<float> grad;

  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static PushDenseMsg decode(std::span<const std::uint8_t> payload);
};

/// Worker -> PS: a CompressedPush (dense quantized or sparse top-k).
/// Decode re-validates the push invariants (sparse indices strictly
/// ascending and < num_params) so a corrupt frame cannot reach the PS math.
struct PushCompressedMsg {
  double lr = 0.0;
  std::vector<std::int64_t> pull_versions;
  CompressedPush push;

  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static PushCompressedMsg decode(std::span<const std::uint8_t> payload);
};

/// PS -> worker: staleness of the just-applied push.
struct PushReplyMsg {
  std::int64_t staleness = 0;

  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static PushReplyMsg decode(std::span<const std::uint8_t> payload);
};

/// Worker -> PS: arrived at the drain barrier after `local_steps` steps.
struct DrainArriveMsg {
  std::int64_t local_steps = 0;

  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static DrainArriveMsg decode(std::span<const std::uint8_t> payload);
};

/// PS -> worker: every alive worker arrived; `done` says whether the run is
/// over (the v1 deployment drains exactly once, at the step quota).
struct DrainReleaseMsg {
  bool done = true;

  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static DrainReleaseMsg decode(std::span<const std::uint8_t> payload);
};

/// Checkpoint request (`logical_step` lands in Checkpoint::global_step);
/// the reply carries the checkpoint's own serialization.
struct CheckpointRequestMsg {
  std::int64_t logical_step = 0;

  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static CheckpointRequestMsg decode(std::span<const std::uint8_t> payload);
};

struct VersionReplyMsg {
  std::int64_t version = 0;

  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static VersionReplyMsg decode(std::span<const std::uint8_t> payload);
};

/// PS -> worker failure report.  The server catches its own exceptions and
/// ships `what()`; the transport rethrows it as NetError("ps_server: ...").
struct ErrorMsg {
  std::string message;

  [[nodiscard]] Frame encode() const;
  [[nodiscard]] static ErrorMsg decode(std::span<const std::uint8_t> payload);
};

/// Frames with no payload fields (kPull, kVersionRequest, kOk, kBye).
[[nodiscard]] Frame make_empty_frame(MsgType type);

}  // namespace ss
