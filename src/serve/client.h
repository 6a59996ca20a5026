// Client library for the NeuTraj query server.
//
// A Client owns one blocking TCP connection and exposes one method per
// endpoint; requests and responses are the wire frames of
// serve/protocol.h. Server-side kError replies surface as ServeError
// exceptions carrying the typed code; transport failures (connect, EOF,
// framing corruption) throw std::runtime_error. A Client is not
// thread-safe — the serving protocol is strictly request/response per
// connection, so concurrent callers must each open their own Client
// (connections are cheap; the server multiplexes them).
//
// Robustness knobs (all off by default, preserving historic blocking
// behavior): set_connect_timeout_ms bounds connection establishment,
// set_io_timeout_ms bounds each send/recv, and set_retry_policy makes
// Connect() retry transient failures (ECONNREFUSED while a server is
// still starting, timeouts, EINTR races) with bounded exponential backoff
// and deterministic seeded jitter.

#ifndef NEUTRAJ_SERVE_CLIENT_H_
#define NEUTRAJ_SERVE_CLIENT_H_

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/framing.h"
#include "serve/protocol.h"

namespace neutraj::serve {

/// A typed error reply from the server.
class ServeError : public std::runtime_error {
 public:
  ServeError(ErrorCode code, const std::string& message)
      : std::runtime_error(std::string(ErrorCodeName(code)) + ": " + message),
        code_(code) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Bounded-exponential-backoff schedule for Connect() retries.
///
/// Attempt n (1-based) that fails with a transient error sleeps
/// `min(backoff_base_ms << (n - 1), backoff_max_ms)` plus a uniform jitter
/// in [0, that delay) drawn from a generator seeded with `jitter_seed` —
/// deterministic per Client, decorrelated across clients that pick
/// different seeds. Non-transient failures (bad address, protocol errors)
/// are never retried.
struct RetryPolicy {
  uint32_t max_attempts = 1;     ///< Total tries; 1 = no retries.
  uint32_t backoff_base_ms = 50;
  uint32_t backoff_max_ms = 2000;
  uint64_t jitter_seed = 42;
};

/// One blocking request/response connection to a query server.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects to host:port, honoring the connect timeout and retry policy.
  /// Throws std::runtime_error on (final) failure.
  void Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Per-frame payload cap applied to sent requests and received replies,
  /// mirroring ServerOptions::max_frame_payload. Values above
  /// kWireMaxPayload (the protocol-wide encoder limit both sides are held
  /// to) are clamped, matching the server-side clamp — so the default is
  /// always enough to decode any conforming server's replies. The cap
  /// survives Connect()/Close().
  void set_max_frame_payload(size_t bytes);
  size_t max_frame_payload() const { return max_frame_payload_; }

  /// Bounds connection establishment (non-blocking connect + poll). 0 (the
  /// default) blocks on the OS's own connect timeout. Survives
  /// Connect()/Close(); applies to the next Connect().
  void set_connect_timeout_ms(uint32_t ms) { connect_timeout_ms_ = ms; }
  uint32_t connect_timeout_ms() const { return connect_timeout_ms_; }

  /// Bounds each send/recv on the connection (SO_SNDTIMEO/SO_RCVTIMEO). A
  /// request whose reply does not arrive in time throws std::runtime_error
  /// and closes the connection (a timed-out stream cannot be resynced). 0
  /// (the default) blocks indefinitely. Applies to the next Connect().
  void set_io_timeout_ms(uint32_t ms) { io_timeout_ms_ = ms; }
  uint32_t io_timeout_ms() const { return io_timeout_ms_; }

  /// Retry schedule for Connect(). Default: one attempt, no retries.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Attaches a trace context to every subsequent request (Encode,
  /// EncodeMany, PairSim, TopK, Insert) as the optional trailing wire
  /// field. A valid context with `sampled` set forces the server to trace
  /// those requests regardless of its sampling rate — this is how
  /// `neutraj_client --trace-id` lights up one request end to end. Pass a
  /// default-constructed context to detach. Survives Connect()/Close().
  void set_trace_context(const obs::TraceContext& ctx) { trace_ = ctx; }
  const obs::TraceContext& trace_context() const { return trace_; }

  /// Embeds one trajectory server-side.
  nn::Vector Encode(const Trajectory& traj);

  /// Pipelined bulk encode: sends every request in one write, then reads
  /// the replies in order. The server answers every frame it has buffered
  /// as one burst, which reaches its micro-batcher as one group, so one
  /// EncodeMany call can fill a batch by itself — this is the
  /// high-throughput encoding path. Results
  /// match per-call Encode() exactly. If any item failed server-side, the
  /// first failure is thrown (as ServeError) after all replies have been
  /// consumed, leaving the connection usable.
  std::vector<nn::Vector> EncodeMany(const std::vector<Trajectory>& trajs);

  /// Embedding distance + similarity of a pair.
  PairSimResponse PairSim(const Trajectory& a, const Trajectory& b);

  /// Top-k over the server's live corpus. `nprobe` tunes an ANN-backed
  /// server's probe breadth (0 = server default; ignored — and omitted from
  /// the wire payload — for exact servers, so old servers stay compatible).
  TopKResponse TopK(const Trajectory& query, uint32_t k, int64_t exclude = -1,
                    uint32_t nprobe = 0);

  /// Appends a trajectory to the live corpus; returns the assigned id and
  /// the corpus size after the insert.
  InsertResponse Insert(const Trajectory& traj);

  StatsSnapshot Stats();
  HealthResponse Health();

  /// Pulls the server's most recent sampled span trees (oldest first).
  /// `max_traces` = 0 asks for the server's default window. Feed the result
  /// to obs::RenderChromeTrace for a chrome://tracing-loadable file.
  TraceDumpResponse TraceDump(uint32_t max_traces = 0);

 private:
  /// Sends one request frame and reads exactly one response frame.
  WireFrame RoundTrip(MsgType type, const std::string& payload);

  /// Reads exactly one frame off the connection (blocking).
  WireFrame RecvFrame();

  /// Checks a reply against the expected type; decodes and throws
  /// ServeError if the server replied kError.
  static void ExpectType(const WireFrame& reply, MsgType expected);

  /// One connection attempt. Returns a connected fd, or throws; transient
  /// failures are marked for the retry loop via *transient.
  int ConnectOnce(const std::string& host, uint16_t port, bool* transient);

  int fd_ = -1;
  std::string rx_;      ///< Receive buffer (bytes not yet framed).
  size_t rx_offset_ = 0;
  size_t max_frame_payload_ = kWireMaxPayload;
  uint32_t connect_timeout_ms_ = 0;
  uint32_t io_timeout_ms_ = 0;
  RetryPolicy retry_;
  obs::TraceContext trace_;  ///< Applied to every request when valid().
};

}  // namespace neutraj::serve

#endif  // NEUTRAJ_SERVE_CLIENT_H_
