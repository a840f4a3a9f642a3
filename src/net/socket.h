// Thin POSIX socket layer for the multi-process deployment.
//
// Endpoints are strings so the CLI, tests, and docs all speak one format:
//
//   unix:/path/to/ps.sock   Unix-domain stream socket (the default for
//                           single-host deployments and the CI smoke test)
//   tcp:host:port           TCP; port 0 binds an ephemeral port and
//                           Listener::endpoint() reports the concrete one
//
// `Socket` is a movable RAII fd with loop-until-complete send/recv (EINTR
// retried, short writes resumed, SIGPIPE suppressed); failures throw
// NetError.  A peer closing the connection surfaces as `recv_frame` /
// `FrameReader::next` returning false when the EOF lands exactly on a frame
// boundary — the clean-shutdown signal the PS server's eviction logic keys
// off — and as a NetError mid-frame.
//
// Frames move without user-space staging copies (the byte format is
// net/frame.h's, unchanged):
//
//  * Send.  A frame is listed as byte ranges: the 16-byte header and small
//    scalar fields in an inline buffer, arrays borrowed from the caller in
//    place, all written with one `sendmsg` over an iovec.
//    `send_frame(const Frame&)` is the one-part case of the same path, so
//    every message type shares it.
//  * Receive.  A `FrameReader` validates the header, then streams the
//    payload field by field straight from the socket into its destination.
//    Every read is bounded by the bytes the header declared, and every
//    vector count is checked against those bytes (and, for the streamed
//    messages, against the expected shape) before anything is read.  After
//    a request-level error, `skip()` discards the rest of the payload so the
//    stream stays on a frame boundary.
//
// User-space passes over a dense step's payload (copies and zero-fills; the
// kernel's socket copy not counted), staged through the `*Msg` codec versus
// this path:
//
//                          staged codec                      gather / stream
//   worker push send       3 (assign, Writer, envelope)      0 (iovec on grad)
//   server push receive    3 (2 zero-fills, decode)          0 (recv into buffer)
//   server pull reply      4 (zero-fill, pull, Writer, env.) 1 (pull)
//   worker pull receive    4 (2 zero-fills, decode, copy)    0 (recv into out)
//
// The one pass left is the PS's own snapshot under its shard locks.
#pragma once

#include <sys/uio.h>

#include <chrono>
#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "net/frame.h"

namespace ss {

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// Send every byte of `parts`, in order, with `sendmsg` (retries short
  /// writes and EINTR).  The iovecs are advanced in place as bytes go out.
  void send_all(std::span<iovec> parts);

  /// Receive exactly `n` bytes.  Returns false iff the peer closed the
  /// connection before the first byte and `eof_ok` is set; any other
  /// shortfall throws NetError.
  [[nodiscard]] bool recv_all(void* data, std::size_t n, bool eof_ok);

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Write one frame with a single gathered send (header + payload).
void send_frame(Socket& sock, const Frame& frame);

/// Streaming receive, one frame at a time.  `next()` reads and validates a
/// header; the payload is then read field by field straight into the
/// caller's buffers.  Every read is bounded by the payload bytes left, and a
/// read past them throws `<Type>: truncated payload` before touching the
/// socket.  Wire metrics and the `recv <Type>` span are recorded when the
/// last payload byte lands.
class FrameReader {
 public:
  explicit FrameReader(Socket& sock) : sock_(sock) {}

  /// Read the next header.  Returns false on a clean EOF at a frame
  /// boundary; throws NetError on a malformed header or a short read.
  [[nodiscard]] bool next();

  [[nodiscard]] MsgType type() const noexcept { return type_; }

  template <typename T>
  [[nodiscard]] T scalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    read_bytes(&v, sizeof(v));
    return v;
  }
  /// A vector's u64 element count, checked against the payload bytes left
  /// before the caller sizes anything by it.
  template <typename T>
  [[nodiscard]] std::size_t count() {
    const auto n = scalar<std::uint64_t>();
    if (n > remaining_ / sizeof(T)) fail("truncated payload");
    return static_cast<std::size_t>(n);
  }
  /// Receive exactly `dst.size()` elements into `dst`.
  template <typename T>
  void read(std::span<T> dst) {
    read_bytes(dst.data(), dst.size_bytes());
  }
  /// The rest of the payload as raw bytes, for messages net/frame.h decodes
  /// whole.
  void rest(std::vector<std::uint8_t>& out);
  /// Require the payload fully consumed; throws `<Type>: trailing bytes`.
  void finish() const;
  /// Discard the rest of the payload, leaving the stream on a frame
  /// boundary.  If a short read already broke the stream, rethrows that
  /// read's error instead.
  void skip();

  /// Throw `<Type>: <what>`, the codec's error form.
  [[noreturn]] void fail(const char* what) const;

 private:
  void read_bytes(void* dst, std::size_t n);
  void received();

  Socket& sock_;
  MsgType type_ = MsgType::kError;
  std::uint64_t payload_ = 0;
  std::uint64_t remaining_ = 0;
  std::exception_ptr broken_by_;  ///< the failed read that broke the stream
  std::chrono::steady_clock::time_point t0_{};
};

/// Read one whole frame (FrameReader plus `rest`).  Returns false on a clean
/// EOF at a frame boundary; throws NetError on a malformed header, an
/// oversized payload, or a connection lost mid-frame.
[[nodiscard]] bool recv_frame(Socket& sock, Frame& frame);

// ---------------------------------------------------------------------------
// The step's two big messages, sent from and received into the caller's
// buffers.  Bytes and checks match PullReplyMsg / PushDenseMsg /
// PushCompressedMsg in net/frame.h; the readers also check the expected
// shape before reading the arrays.
// ---------------------------------------------------------------------------

void send_pull_reply(Socket& sock, std::span<const std::int64_t> versions,
                     std::span<const float> params);
void send_push_dense(Socket& sock, double lr, std::span<const std::int64_t> pull_versions,
                     std::span<const float> grad);
void send_push_compressed(Socket& sock, double lr,
                          std::span<const std::int64_t> pull_versions,
                          const CompressedPush& push);

/// Stream a PullReply payload: `num_shards` versions into `versions`, the
/// parameters into `params` (the count must equal its size).
void read_pull_reply(FrameReader& in, std::span<float> params,
                     std::vector<std::int64_t>& versions, std::size_t num_shards);

/// Stream a PushDense payload: `num_shards` versions into `versions`, the
/// gradient into `grad` (the count must equal its size).  Returns the lr.
[[nodiscard]] double read_push_dense(FrameReader& in, std::span<float> grad,
                                     std::vector<std::int64_t>& versions,
                                     std::size_t num_shards);

/// Connect to `endpoint` ("unix:<path>" or "tcp:<host>:<port>").
[[nodiscard]] Socket connect_endpoint(const std::string& endpoint);

/// Listening socket bound to an endpoint.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Block until a client connects.
  [[nodiscard]] Socket accept();

  /// The concrete endpoint string (tcp port 0 resolved to the bound port);
  /// what a worker passes to connect_endpoint.
  [[nodiscard]] const std::string& endpoint() const noexcept { return endpoint_; }

  void close() noexcept;

 private:
  friend Listener listen_endpoint(const std::string&, int);
  int fd_ = -1;
  std::string endpoint_;
  std::string unix_path_;  ///< unlinked on close
};

/// Bind + listen on `endpoint`.  A pre-existing Unix socket path is
/// replaced (stale file from a killed server).
[[nodiscard]] Listener listen_endpoint(const std::string& endpoint, int backlog = 16);

}  // namespace ss
