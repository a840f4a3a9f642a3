#include "net/socket.h"

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/error.h"
#include "obs/obs.h"

namespace ss {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

// Wire-layer instrumentation handles, registered lazily on the first frame
// sent/received with observability enabled (send_frame/recv_frame guard on
// obs::enabled(), so an obs-off process never touches the registry).  Byte
// histograms count the full frame (header + payload) — the quantity the
// simulator's transfer_time pricing charges — so real wire-cost
// distributions diff directly against simulated ones.
struct WireMetrics {
  obs::Counter& frames_sent;
  obs::Counter& frames_received;
  obs::Counter& bytes_sent;
  obs::Counter& bytes_received;
  obs::Histogram& sent_frame_bytes;
  obs::Histogram& recv_frame_bytes;
  obs::Histogram& send_seconds;
  obs::Histogram& recv_seconds;
};

WireMetrics& wire_metrics() {
  static WireMetrics* m = [] {
    auto& reg = obs::metrics();
    const std::vector<double> byte_buckets{64,      256,     1024,     4096,    16384,
                                           65536,   262144,  1048576,  4194304, 16777216};
    const std::vector<double> time_buckets{1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1.0};
    return new WireMetrics{
        reg.counter("ss_net_frames_sent_total", "Frames written to a socket"),
        reg.counter("ss_net_frames_received_total", "Frames read from a socket"),
        reg.counter("ss_net_bytes_sent_total", "Frame bytes written (header + payload)"),
        reg.counter("ss_net_bytes_received_total", "Frame bytes read (header + payload)"),
        reg.histogram("ss_net_sent_frame_bytes", byte_buckets,
                      "Per-frame wire cost, send side (bytes)"),
        reg.histogram("ss_net_recv_frame_bytes", byte_buckets,
                      "Per-frame wire cost, receive side (bytes)"),
        reg.histogram("ss_net_send_frame_seconds", time_buckets,
                      "Blocking send time per frame (seconds)"),
        reg.histogram("ss_net_recv_frame_seconds", time_buckets,
                      "Payload receive time per frame (seconds; header wait excluded)"),
    };
  }();
  return *m;
}

/// Split "unix:<path>" / "tcp:<host>:<port>".  A bare path (contains '/')
/// is accepted as a Unix endpoint for convenience.
struct ParsedEndpoint {
  bool is_unix = true;
  std::string path;  // unix
  std::string host;  // tcp
  std::string port;  // tcp (string form for getaddrinfo)
};

ParsedEndpoint parse_endpoint(const std::string& endpoint) {
  ParsedEndpoint ep;
  if (endpoint.rfind("unix:", 0) == 0) {
    ep.path = endpoint.substr(5);
  } else if (endpoint.rfind("tcp:", 0) == 0) {
    ep.is_unix = false;
    const std::string rest = endpoint.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size())
      throw NetError("endpoint '" + endpoint + "': expected tcp:<host>:<port>");
    ep.host = rest.substr(0, colon);
    ep.port = rest.substr(colon + 1);
  } else if (endpoint.find('/') != std::string::npos) {
    ep.path = endpoint;
  } else {
    throw NetError("endpoint '" + endpoint +
                   "': expected unix:<path> or tcp:<host>:<port>");
  }
  if (ep.is_unix && ep.path.empty())
    throw NetError("endpoint '" + endpoint + "': empty unix path");
  if (ep.is_unix && ep.path.size() >= sizeof(sockaddr_un{}.sun_path))
    throw NetError("endpoint '" + endpoint + "': unix path too long");
  return ep;
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::send_all(std::span<iovec> parts) {
  if (fd_ < 0) throw NetError("Socket::send_all: socket closed");
  iovec* iov = parts.data();
  std::size_t left = parts.size();
  while (true) {
    while (left > 0 && iov->iov_len == 0) {
      ++iov;
      --left;
    }
    if (left == 0) return;
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = std::min<std::size_t>(left, IOV_MAX);
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the process.
    const ssize_t sent = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw_errno("Socket::send_all");
    }
    // Resume after a short write: drop the parts that went out whole and
    // advance into the one cut mid-way.
    auto done = static_cast<std::size_t>(sent);
    while (done > 0 && done >= iov->iov_len) {
      done -= iov->iov_len;
      ++iov;
      --left;
    }
    if (done > 0) {
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
}

bool Socket::recv_all(void* data, std::size_t n, bool eof_ok) {
  if (fd_ < 0) throw NetError("Socket::recv_all: socket closed");
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("Socket::recv_all");
    }
    if (r == 0) {
      if (got == 0 && eof_ok) return false;
      throw NetError("Socket::recv_all: connection closed mid-message");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

// ------------------------------------------------------------------ send

namespace {

/// A frame to send, as byte ranges: the header and scalar fields are copied
/// into an inline buffer, arrays are borrowed and must outlive the send.
/// Fields are appended in the order of the message's `encode()`
/// (net/frame.h), so the bytes on the wire are the same.
class GatherFrame {
 public:
  explicit GatherFrame(MsgType type);
  GatherFrame(const GatherFrame&) = delete;
  GatherFrame& operator=(const GatherFrame&) = delete;

  template <typename T>
  void scalar(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    copy_in(&v, sizeof(v));
  }
  /// `[u64 count][elements]`, the elements borrowed in place.
  template <typename T>
  void array(std::span<const T> v) {
    scalar(static_cast<std::uint64_t>(v.size()));
    borrow(v.data(), v.size_bytes());
  }
  template <typename T>
  void array(const std::vector<T>& v) {
    array(std::span<const T>(v));
  }
  /// Raw payload bytes, borrowed in place.
  void bytes(std::span<const std::uint8_t> b) { borrow(b.data(), b.size()); }

  [[nodiscard]] MsgType type() const noexcept { return type_; }
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept { return payload_; }
  /// The whole frame, header first.
  [[nodiscard]] std::span<iovec> parts() noexcept { return {parts_.data(), count_}; }

 private:
  static constexpr std::size_t kInlineBytes = 96;
  static constexpr std::size_t kMaxParts = 8;

  void copy_in(const void* src, std::size_t n);
  void borrow(const void* src, std::size_t n);
  void grow(std::size_t n);  ///< count n more payload bytes in the header

  MsgType type_;
  std::uint64_t payload_ = 0;
  std::size_t used_ = 0;   ///< inline bytes in use, header included
  std::size_t count_ = 0;  ///< parts in use
  alignas(8) std::array<std::uint8_t, kInlineBytes> inline_{};
  std::array<iovec, kMaxParts> parts_{};
};

GatherFrame::GatherFrame(MsgType type) : type_(type) {
  // The header's payload length (bytes 8..16) is kept current as parts land.
  const auto raw_type = static_cast<std::uint16_t>(type);
  std::memcpy(inline_.data(), &kFrameMagic, 4);
  std::memcpy(inline_.data() + 4, &kFrameVersion, 2);
  std::memcpy(inline_.data() + 6, &raw_type, 2);
  std::memcpy(inline_.data() + 8, &payload_, 8);
  used_ = kFrameHeaderBytes;
  parts_[count_++] = iovec{inline_.data(), kFrameHeaderBytes};
}

void GatherFrame::copy_in(const void* src, std::size_t n) {
  if (used_ + n > kInlineBytes) throw std::length_error("GatherFrame: inline buffer full");
  std::uint8_t* dst = inline_.data() + used_;
  std::memcpy(dst, src, n);
  used_ += n;
  iovec& last = parts_[count_ - 1];  // the header is always part 0
  if (static_cast<std::uint8_t*>(last.iov_base) + last.iov_len == dst) {
    last.iov_len += n;
    grow(n);
  } else {
    borrow(dst, n);
  }
}

void GatherFrame::borrow(const void* src, std::size_t n) {
  if (n == 0) return;  // empty vectors hand over a null data()
  if (count_ == kMaxParts) throw std::length_error("GatherFrame: too many parts");
  parts_[count_++] = iovec{const_cast<void*>(src), n};
  grow(n);
}

void GatherFrame::grow(std::size_t n) {
  payload_ += n;
  std::memcpy(inline_.data() + 8, &payload_, sizeof(payload_));
}

/// Send `frame` (its iovecs are consumed) and record the wire metrics.
void send_gathered(Socket& sock, GatherFrame& frame) {
  if (!obs::enabled()) {
    sock.send_all(frame.parts());
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  sock.send_all(frame.parts());
  const auto t1 = std::chrono::steady_clock::now();
  WireMetrics& m = wire_metrics();
  const auto n = static_cast<std::int64_t>(kFrameHeaderBytes + frame.payload_bytes());
  m.frames_sent.add();
  m.bytes_sent.add(n);
  m.sent_frame_bytes.observe(static_cast<double>(n));
  m.send_seconds.observe(std::chrono::duration<double>(t1 - t0).count());
  if (obs::tracing()) {
    auto& tr = obs::tracer();
    tr.complete(obs::thread_track(), std::string("send ") + msg_type_name(frame.type()),
                tr.to_us(t0), tr.to_us(t1) - tr.to_us(t0), {obs::arg("bytes", n)});
  }
}

}  // namespace

void send_frame(Socket& sock, const Frame& frame) {
  GatherFrame g(frame.type);
  g.bytes(frame.payload);
  send_gathered(sock, g);
}

void send_pull_reply(Socket& sock, std::span<const std::int64_t> versions,
                     std::span<const float> params) {
  GatherFrame g(MsgType::kPullReply);
  g.array(versions);
  g.array(params);
  send_gathered(sock, g);
}

void send_push_dense(Socket& sock, double lr, std::span<const std::int64_t> pull_versions,
                     std::span<const float> grad) {
  GatherFrame g(MsgType::kPushDense);
  g.scalar(lr);
  g.array(pull_versions);
  g.array(grad);
  send_gathered(sock, g);
}

void send_push_compressed(Socket& sock, double lr,
                          std::span<const std::int64_t> pull_versions,
                          const CompressedPush& push) {
  GatherFrame g(MsgType::kPushCompressed);
  g.scalar(lr);
  g.array(pull_versions);
  g.scalar(static_cast<std::uint8_t>(push.format));
  g.scalar(static_cast<std::uint64_t>(push.num_params));
  g.scalar(static_cast<std::uint64_t>(push.wire_size));
  g.array(push.values);
  g.array(push.indices);
  send_gathered(sock, g);
}

// --------------------------------------------------------------- receive

bool FrameReader::next() {
  std::uint8_t header[kFrameHeaderBytes];
  remaining_ = payload_ = 0;
  if (!sock_.recv_all(header, sizeof(header), /*eof_ok=*/true)) return false;
  payload_ = decode_frame_header(std::span<const std::uint8_t>(header, sizeof(header)), type_);
  remaining_ = payload_;
  // The span clock starts after the header: header blocking time is mostly
  // idle wait for the peer to speak, not transfer cost.
  if (obs::enabled()) t0_ = std::chrono::steady_clock::now();
  if (remaining_ == 0) received();
  return true;
}

void FrameReader::read_bytes(void* dst, std::size_t n) {
  if (n > remaining_) fail("truncated payload");
  if (n == 0) return;
  try {
    (void)sock_.recv_all(dst, n, /*eof_ok=*/false);
  } catch (...) {
    broken_by_ = std::current_exception();
    throw;
  }
  remaining_ -= n;
  if (remaining_ == 0) received();
}

void FrameReader::rest(std::vector<std::uint8_t>& out) {
  out.resize(static_cast<std::size_t>(remaining_));
  read(std::span<std::uint8_t>(out));
}

void FrameReader::finish() const {
  if (remaining_ != 0) fail("trailing bytes");
}

void FrameReader::skip() {
  if (broken_by_) std::rethrow_exception(broken_by_);
  std::uint8_t sink[4096];
  while (remaining_ > 0) read_bytes(sink, std::min<std::uint64_t>(remaining_, sizeof(sink)));
}

void FrameReader::fail(const char* what) const {
  throw NetError(std::string(msg_type_name(type_)) + ": " + what);
}

void FrameReader::received() {
  if (!obs::enabled()) return;
  const auto t1 = std::chrono::steady_clock::now();
  WireMetrics& m = wire_metrics();
  const auto n = static_cast<std::int64_t>(kFrameHeaderBytes + payload_);
  m.frames_received.add();
  m.bytes_received.add(n);
  m.recv_frame_bytes.observe(static_cast<double>(n));
  m.recv_seconds.observe(std::chrono::duration<double>(t1 - t0_).count());
  if (obs::tracing()) {
    auto& tr = obs::tracer();
    tr.complete(obs::thread_track(), std::string("recv ") + msg_type_name(type_),
                tr.to_us(t0_), tr.to_us(t1) - tr.to_us(t0_), {obs::arg("bytes", n)});
  }
}

bool recv_frame(Socket& sock, Frame& frame) {
  FrameReader in(sock);
  if (!in.next()) return false;
  frame.type = in.type();
  in.rest(frame.payload);
  return true;
}

namespace {

/// A streamed message's version vector: non-empty, and one entry per shard.
void read_versions(FrameReader& in, std::vector<std::int64_t>& versions,
                   std::size_t num_shards) {
  const std::size_t n = in.count<std::int64_t>();
  if (n == 0) in.fail("empty version vector");
  if (n != num_shards) in.fail("version count mismatch");
  versions.resize(n);
  in.read(std::span<std::int64_t>(versions));
}

}  // namespace

void read_pull_reply(FrameReader& in, std::span<float> params,
                     std::vector<std::int64_t>& versions, std::size_t num_shards) {
  read_versions(in, versions, num_shards);
  if (in.count<float>() != params.size()) in.fail("parameter count mismatch");
  in.read(params);
  in.finish();
}

double read_push_dense(FrameReader& in, std::span<float> grad,
                       std::vector<std::int64_t>& versions, std::size_t num_shards) {
  const auto lr = in.scalar<double>();
  read_versions(in, versions, num_shards);
  if (in.count<float>() != grad.size()) in.fail("gradient length mismatch");
  in.read(grad);
  in.finish();
  return lr;
}

Socket connect_endpoint(const std::string& endpoint) {
  const ParsedEndpoint ep = parse_endpoint(endpoint);
  if (ep.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("connect_endpoint: socket");
    Socket sock(fd);
    const sockaddr_un addr = make_unix_addr(ep.path);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
      throw_errno("connect_endpoint: connect " + endpoint);
    return sock;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(ep.host.c_str(), ep.port.c_str(), &hints, &res);
  if (rc != 0)
    throw NetError("connect_endpoint: resolve " + endpoint + ": " + gai_strerror(rc));
  Socket sock;
  std::string last_error = "no addresses";
  for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      sock = Socket(fd);
      break;
    }
    last_error = std::strerror(errno);
    ::close(fd);
  }
  ::freeaddrinfo(res);
  if (!sock.valid())
    throw NetError("connect_endpoint: connect " + endpoint + ": " + last_error);
  return sock;
}

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      endpoint_(std::move(other.endpoint_)),
      unix_path_(std::move(other.unix_path_)) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    endpoint_ = std::move(other.endpoint_);
    unix_path_ = std::move(other.unix_path_);
  }
  return *this;
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

Socket Listener::accept() {
  if (fd_ < 0) throw NetError("Listener::accept: listener closed");
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    throw_errno("Listener::accept");
  }
}

Listener listen_endpoint(const std::string& endpoint, int backlog) {
  const ParsedEndpoint ep = parse_endpoint(endpoint);
  Listener listener;
  if (ep.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("listen_endpoint: socket");
    listener.fd_ = fd;
    ::unlink(ep.path.c_str());  // stale socket file from a killed server
    const sockaddr_un addr = make_unix_addr(ep.path);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
      throw_errno("listen_endpoint: bind " + endpoint);
    listener.unix_path_ = ep.path;
    listener.endpoint_ = "unix:" + ep.path;
  } else {
    addrinfo hints{};
    hints.ai_family = AF_INET;  // deterministic endpoint() string form
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo* res = nullptr;
    const int rc = ::getaddrinfo(ep.host.c_str(), ep.port.c_str(), &hints, &res);
    if (rc != 0)
      throw NetError("listen_endpoint: resolve " + endpoint + ": " + gai_strerror(rc));
    int fd = -1;
    for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
      fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) continue;
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      ::close(fd);
      fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) throw_errno("listen_endpoint: bind " + endpoint);
    listener.fd_ = fd;
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0)
      throw_errno("listen_endpoint: getsockname");
    listener.endpoint_ = "tcp:" + ep.host + ":" + std::to_string(ntohs(bound.sin_port));
  }
  if (::listen(listener.fd_, backlog) != 0) throw_errno("listen_endpoint: listen");
  return listener;
}

}  // namespace ss
