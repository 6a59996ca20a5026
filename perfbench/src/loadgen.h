// Open-loop load generator and capacity search.
//
// The generator sends pre-encoded wire frames on a fixed schedule whatever
// the server does: a request is due at its intended time, not when an
// earlier reply came back. Latency is measured from the intended send time,
// so a server stall is charged to every request queued behind it instead of
// silently thinning the offered load (the closed-loop "coordinated
// omission" error). The generator reports on itself too: how late it sent
// each request against its own schedule, so a run where the generator, not
// the server, fell behind can be flagged.
//
// It runs on one thread, the caller's: it dispatches each request when it
// is due and reads replies from every connection in one poll() loop. It
// blocks in poll() until a reply arrives or less than a millisecond is left
// before the next request is due, and spins that last fraction, so a
// dispatch does not wait on a timer wake-up (on a shared VM one can come
// milliseconds late, and the lateness would be charged to the server). It
// does not spin longer: a CPU held busy by the generator slowed the
// server's own thread wake-ups. Requests are grouped into lanes; each lane
// owns its connections. Like serve::Client, a connection carries one
// request at a time: a request due while every connection of its lane is
// busy waits in the lane's queue and is sent the moment a reply frees a
// connection. That wait counts in the request's latency (it is measured
// from the intended time) but not as generator lateness, which is only how
// late the generator got to the request.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One scheduled request: an encoded wire frame due `at_s` seconds after
/// the phase starts, sent on a connection of `lane`.
struct ScheduledRequest {
  double at_s = 0.0;
  size_t lane = 0;
  std::string frame;
};

/// What happened to one request. Times are seconds since the phase start.
struct Outcome {
  double intended_s = 0.0;
  double dispatched_s = 0.0;  ///< When the generator got to it.
  double done_s = 0.0;
  bool done = false;   ///< A reply frame arrived.
  uint16_t reply_type = 0;
  std::string reply_payload;

  /// Completion time minus intended send time.
  double LatencyMs() const { return (done_s - intended_s) * 1e3; }
  /// How far behind its own schedule the generator dispatched this request.
  double LateMs() const { return (dispatched_s - intended_s) * 1e3; }
};

/// A fixed set of connections to one server, driven open-loop.
class OpenLoopClient {
 public:
  /// Opens `lane_connections[i]` TCP connections for lane i. Throws
  /// std::runtime_error when a connection cannot be made.
  OpenLoopClient(const std::string& host, uint16_t port,
                 const std::vector<size_t>& lane_connections);
  ~OpenLoopClient();

  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Dispatches `requests` (ascending at_s) on schedule and waits for every
  /// reply, or until `drain_timeout_s` after the last dispatch; requests
  /// still unanswered then are returned with done = false. One Outcome per
  /// request, in request order.
  std::vector<Outcome> Run(const std::vector<ScheduledRequest>& requests,
                           double drain_timeout_s = 30.0);

 private:
  struct Conn {
    int fd = -1;
    size_t lane = 0;
    std::string rx;       ///< Bytes received, not yet a whole frame.
    bool busy = false;    ///< A request is in flight.
    size_t inflight = 0;  ///< Which request, when busy.
    bool broken = false;
  };
  struct Lane {
    std::deque<size_t> queue;  ///< Due requests waiting for a connection.
    std::vector<std::unique_ptr<Conn>> conns;
  };

  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// Summary of one phase of requests, as the generator saw it.
struct PhaseReport {
  std::string name;
  size_t sent = 0;
  size_t succeeded = 0;
  size_t failed = 0;
  double late_p99_ms = 0.0;
  /// The generator's own lateness exceeded the flag threshold (never set
  /// for a burst, where every request is due at once).
  bool generator_behind = false;
};

/// Generator lateness above which a phase is flagged as generator-bound.
inline constexpr double kGeneratorBehindMs = 2.0;

/// Builds a PhaseReport; `ok(i)` says whether outcome i succeeded.
PhaseReport SummarizePhase(const std::string& name,
                           const std::vector<Outcome>& outcomes,
                           const std::function<bool(size_t)>& ok);

/// One rung of the capacity ladder.
struct Rung {
  double rate = 0.0;
  bool pass = false;
  double p99_ms = 0.0;
  bool backlog_growing = false;
  size_t sent = 0;
  size_t failed = 0;
  double late_p99_ms = 0.0;  ///< The generator's own lateness on this rung.
  /// Replies per second actually completed: successes over the time from
  /// the first intended send to the last reply.
  double achieved = 0.0;
};

/// True when latency rises across a constant-rate phase: the median of the
/// last third of requests (by intended time) exceeds three times the median
/// of the first third plus `slack_ms`. Medians of thirds keep a stall
/// shorter than a sixth of the phase from reading as a growing queue, while
/// an offered rate 3% over capacity for two seconds queues ~50 ms of work.
/// `latencies_ms` is in intended order.
bool BacklogGrowing(const std::vector<double>& latencies_ms,
                    double slack_ms = 5.0);

struct CapacityResult {
  double capacity = 0.0;  ///< Highest passing rate found; 0 if none passed.
  double achieved = 0.0;  ///< Rung::achieved of that rung.
  std::vector<Rung> rungs;  ///< Every rung probed, in probe order.
};

/// Ladder search for the highest offered rate a server sustains.
///
/// Ascends from `start_rate` by `growth` and stops at the first failing
/// rung (a growing backlog or a p99 over the limit — `probe` decides);
/// nothing above that rung is ever offered. It then bisects geometrically
/// between the last passing and first failing rate `bisections` times, so
/// the final step is growth^(1/2^bisections). If the first rung already
/// fails it descends by `growth` (at most `max_descents` times) to find a
/// passing rate first. `max_rate` caps the ascent.
CapacityResult SearchCapacity(const std::function<Rung(double)>& probe,
                              double start_rate, double growth,
                              int bisections, double max_rate,
                              int max_descents = 8);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
