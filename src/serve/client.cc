#include "serve/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/framing.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace neutraj::serve {

namespace {

/// Closes the wrapped fd on scope exit unless released — keeps the
/// multi-exit connect path leak-free.
class FdGuard {
 public:
  explicit FdGuard(int fd) : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  int Release() { return std::exchange(fd_, -1); }

 private:
  int fd_;
};

/// Connect failures worth retrying: the server not being up yet or the
/// network transiently dropping the handshake. Address/config errors are
/// permanent and retrying them only hides the bug.
bool IsTransientConnectErrno(int err) {
  return err == ECONNREFUSED || err == ECONNRESET || err == ETIMEDOUT ||
         err == ENETUNREACH || err == EHOSTUNREACH || err == EAGAIN ||
         err == EINTR;
}

void SetNonBlocking(int fd, bool enable) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  const int want = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  ::fcntl(fd, F_SETFL, want);
}

void SendAllOrThrow(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw std::runtime_error("Client: send timed out");
      }
      throw std::runtime_error(std::string("Client: send failed: ") +
                               ErrnoMessage(errno));
    }
    sent += static_cast<size_t>(n);
  }
}

}  // namespace

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      rx_(std::move(other.rx_)),
      rx_offset_(other.rx_offset_),
      max_frame_payload_(other.max_frame_payload_),
      connect_timeout_ms_(other.connect_timeout_ms_),
      io_timeout_ms_(other.io_timeout_ms_),
      retry_(other.retry_),
      trace_(other.trace_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    rx_ = std::move(other.rx_);
    rx_offset_ = other.rx_offset_;
    max_frame_payload_ = other.max_frame_payload_;
    connect_timeout_ms_ = other.connect_timeout_ms_;
    io_timeout_ms_ = other.io_timeout_ms_;
    retry_ = other.retry_;
    trace_ = other.trace_;
  }
  return *this;
}

void Client::set_max_frame_payload(size_t bytes) {
  max_frame_payload_ = std::min(bytes, kWireMaxPayload);
}

int Client::ConnectOnce(const std::string& host, uint16_t port,
                        bool* transient) {
  *transient = false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("Client: bad address '" + host + "'");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("Client: socket failed: ") +
                             ErrnoMessage(errno));
  }
  FdGuard guard(fd);

  const auto fail = [&](const std::string& what, bool is_transient) -> int {
    *transient = is_transient;
    throw std::runtime_error("Client: cannot connect to " + host + ":" +
                             std::to_string(port) + ": " + what);
  };

  if (connect_timeout_ms_ == 0) {
    // Historic path: blocking connect, OS-default timeout.
    while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) != 0) {
      if (errno == EINTR) continue;
      fail(ErrnoMessage(errno), IsTransientConnectErrno(errno));
    }
  } else {
    // Non-blocking connect bounded by poll(), then back to blocking mode so
    // the send/recv paths keep their plain semantics.
    SetNonBlocking(fd, true);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      if (errno != EINPROGRESS && errno != EINTR) {
        fail(ErrnoMessage(errno), IsTransientConnectErrno(errno));
      }
      pollfd pfd{fd, POLLOUT, 0};
      int rc;
      do {
        rc = ::poll(&pfd, 1, static_cast<int>(connect_timeout_ms_));
      } while (rc < 0 && errno == EINTR);
      if (rc == 0) fail("connect timed out", true);
      if (rc < 0) fail(ErrnoMessage(errno), false);
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0) {
        fail(ErrnoMessage(errno), false);
      }
      if (soerr != 0) {
        fail(ErrnoMessage(soerr), IsTransientConnectErrno(soerr));
      }
    }
    SetNonBlocking(fd, false);
  }

  // Requests are small frames, often pipelined: Nagle would hold each one
  // behind the server's delayed ACK of the previous one.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (io_timeout_ms_ > 0) {
    timeval tv{};
    tv.tv_sec = io_timeout_ms_ / 1000;
    tv.tv_usec = static_cast<suseconds_t>(io_timeout_ms_ % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  return guard.Release();
}

void Client::Connect(const std::string& host, uint16_t port) {
  Close();
  Rng jitter(retry_.jitter_seed);
  const uint32_t attempts = std::max<uint32_t>(retry_.max_attempts, 1);
  for (uint32_t attempt = 1;; ++attempt) {
    bool transient = false;
    try {
      fd_ = ConnectOnce(host, port, &transient);
      return;
    } catch (const std::runtime_error&) {
      if (!transient || attempt >= attempts) throw;
    }
    // Bounded exponential backoff with uniform jitter: base << (attempt-1),
    // capped, plus up to the same again — deterministic per jitter_seed.
    const uint32_t shift = std::min<uint32_t>(attempt - 1, 20);
    const uint64_t raw = static_cast<uint64_t>(retry_.backoff_base_ms) << shift;
    const uint64_t capped = std::min<uint64_t>(raw, retry_.backoff_max_ms);
    const uint64_t delay_ms =
        capped + static_cast<uint64_t>(jitter.Uniform(0.0, 1.0) *
                                       static_cast<double>(capped));
    SleepForMillis(delay_ms);
  }
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_.clear();
  rx_offset_ = 0;
}

WireFrame Client::RoundTrip(MsgType type, const std::string& payload) {
  if (fd_ < 0) throw std::runtime_error("Client: not connected");
  SendAllOrThrow(fd_, EncodeWireFrame(static_cast<uint16_t>(type), payload,
                                      max_frame_payload_));
  return RecvFrame();
}

WireFrame Client::RecvFrame() {
  char chunk[64 * 1024];
  while (true) {
    WireFrame reply;
    const FrameStatus status =
        DecodeWireFrame(rx_, &rx_offset_, &reply, max_frame_payload_);
    if (status == FrameStatus::kOk) {
      if (rx_offset_ == rx_.size()) {
        rx_.clear();
        rx_offset_ = 0;
      }
      return reply;
    }
    if (status != FrameStatus::kIncomplete) {
      Close();
      throw std::runtime_error(std::string("Client: corrupt reply frame (") +
                               FrameStatusName(status) + ")");
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_RCVTIMEO fired mid-reply. The stream may now hold a partial
      // frame, so the connection cannot be reused — close and report.
      Close();
      throw std::runtime_error("Client: receive timed out");
    }
    if (n <= 0) {
      Close();
      throw std::runtime_error("Client: connection closed by server");
    }
    rx_.append(chunk, static_cast<size_t>(n));
  }
}

void Client::ExpectType(const WireFrame& reply, MsgType expected) {
  if (reply.type == static_cast<uint16_t>(expected)) return;
  if (reply.type == static_cast<uint16_t>(MsgType::kError)) {
    ErrorReply err;
    if (ParseError(reply.payload, &err)) throw ServeError(err.code, err.message);
    throw std::runtime_error("Client: unparseable error reply");
  }
  throw std::runtime_error("Client: unexpected reply type " +
                           std::to_string(reply.type));
}

nn::Vector Client::Encode(const Trajectory& traj) {
  EncodeRequest req;
  req.traj = traj;
  req.trace = trace_;
  const WireFrame reply =
      RoundTrip(MsgType::kEncodeRequest, SerializeEncodeRequest(req));
  ExpectType(reply, MsgType::kEncodeResponse);
  EncodeResponse resp;
  if (!ParseEncodeResponse(reply.payload, &resp)) {
    throw std::runtime_error("Client: malformed encode response");
  }
  return std::move(resp.embedding);
}

std::vector<nn::Vector> Client::EncodeMany(
    const std::vector<Trajectory>& trajs) {
  if (fd_ < 0) throw std::runtime_error("Client: not connected");
  std::string out;
  for (const Trajectory& traj : trajs) {
    EncodeRequest req;
    req.traj = traj;
    req.trace = trace_;
    out += EncodeWireFrame(static_cast<uint16_t>(MsgType::kEncodeRequest),
                           SerializeEncodeRequest(req), max_frame_payload_);
  }
  SendAllOrThrow(fd_, out);

  // Consume every reply before surfacing any failure, so a mid-burst error
  // does not desynchronize the request/response stream.
  std::vector<WireFrame> replies;
  replies.reserve(trajs.size());
  for (size_t i = 0; i < trajs.size(); ++i) replies.push_back(RecvFrame());

  std::vector<nn::Vector> results;
  results.reserve(trajs.size());
  for (const WireFrame& reply : replies) {
    ExpectType(reply, MsgType::kEncodeResponse);
    EncodeResponse resp;
    if (!ParseEncodeResponse(reply.payload, &resp)) {
      throw std::runtime_error("Client: malformed encode response");
    }
    results.push_back(std::move(resp.embedding));
  }
  return results;
}

PairSimResponse Client::PairSim(const Trajectory& a, const Trajectory& b) {
  PairSimRequest req;
  req.a = a;
  req.b = b;
  req.trace = trace_;
  const WireFrame reply =
      RoundTrip(MsgType::kPairSimRequest, SerializePairSimRequest(req));
  ExpectType(reply, MsgType::kPairSimResponse);
  PairSimResponse resp;
  if (!ParsePairSimResponse(reply.payload, &resp)) {
    throw std::runtime_error("Client: malformed pairsim response");
  }
  return resp;
}

TopKResponse Client::TopK(const Trajectory& query, uint32_t k,
                          int64_t exclude, uint32_t nprobe) {
  TopKRequest req;
  req.query = query;
  req.k = k;
  req.exclude = exclude;
  req.nprobe = nprobe;
  req.trace = trace_;
  const WireFrame reply =
      RoundTrip(MsgType::kTopKRequest, SerializeTopKRequest(req));
  ExpectType(reply, MsgType::kTopKResponse);
  TopKResponse resp;
  if (!ParseTopKResponse(reply.payload, &resp)) {
    throw std::runtime_error("Client: malformed topk response");
  }
  return resp;
}

InsertResponse Client::Insert(const Trajectory& traj) {
  InsertRequest req;
  req.traj = traj;
  req.trace = trace_;
  const WireFrame reply =
      RoundTrip(MsgType::kInsertRequest, SerializeInsertRequest(req));
  ExpectType(reply, MsgType::kInsertResponse);
  InsertResponse resp;
  if (!ParseInsertResponse(reply.payload, &resp)) {
    throw std::runtime_error("Client: malformed insert response");
  }
  return resp;
}

StatsSnapshot Client::Stats() {
  const WireFrame reply = RoundTrip(MsgType::kStatsRequest, "");
  ExpectType(reply, MsgType::kStatsResponse);
  StatsResponse resp;
  if (!ParseStatsResponse(reply.payload, &resp)) {
    throw std::runtime_error("Client: malformed stats response");
  }
  return std::move(resp.stats);
}

HealthResponse Client::Health() {
  const WireFrame reply = RoundTrip(MsgType::kHealthRequest, "");
  ExpectType(reply, MsgType::kHealthResponse);
  HealthResponse resp;
  if (!ParseHealthResponse(reply.payload, &resp)) {
    throw std::runtime_error("Client: malformed health response");
  }
  return resp;
}

TraceDumpResponse Client::TraceDump(uint32_t max_traces) {
  const WireFrame reply = RoundTrip(MsgType::kTraceDumpRequest,
                                    SerializeTraceDumpRequest({max_traces}));
  ExpectType(reply, MsgType::kTraceDumpResponse);
  TraceDumpResponse resp;
  if (!ParseTraceDumpResponse(reply.payload, &resp)) {
    throw std::runtime_error("Client: malformed tracedump response");
  }
  return resp;
}

}  // namespace neutraj::serve
