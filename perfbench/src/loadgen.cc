#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <stdexcept>

#include "bench_util.h"
#include "common/framing.h"

namespace perfbench {
namespace {

int ConnectTcp(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("loadgen: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("loadgen: bad address " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("loadgen: connect to " + host + ":" +
                             std::to_string(port) + " failed");
  }
  // The generator must not add its own Nagle delay to requests.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

OpenLoopClient::OpenLoopClient(const std::string& host, uint16_t port,
                               const std::vector<size_t>& lane_connections) {
  for (size_t lane = 0; lane < lane_connections.size(); ++lane) {
    if (lane_connections[lane] == 0) {
      throw std::invalid_argument("loadgen: empty lane");
    }
    auto l = std::make_unique<Lane>();
    for (size_t i = 0; i < lane_connections[lane]; ++i) {
      auto conn = std::make_unique<Conn>();
      conn->lane = lane;
      conn->fd = ConnectTcp(host, port);
      l->conns.push_back(std::move(conn));
    }
    lanes_.push_back(std::move(l));
  }
}

OpenLoopClient::~OpenLoopClient() {
  for (auto& lane : lanes_) {
    for (auto& conn : lane->conns) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
  }
}

std::vector<Outcome> OpenLoopClient::Run(
    const std::vector<ScheduledRequest>& requests, double drain_timeout_s) {
  std::vector<Outcome> out(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    out[i].intended_s = requests[i].at_s;
  }
  std::vector<Conn*> conns;
  for (auto& lane : lanes_) {
    for (auto& conn : lane->conns) conns.push_back(conn.get());
  }
  std::vector<pollfd> pfds(conns.size());
  for (size_t i = 0; i < conns.size(); ++i) {
    pfds[i].fd = conns[i]->broken ? -1 : conns[i]->fd;
    pfds[i].events = POLLIN;
  }
  std::string chunk(64 * 1024, '\0');
  const Clock::time_point t0 = Clock::now();
  auto now_s = [t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  // Marks `c` busy with request `idx` and writes it.
  auto send = [&](Conn* c, size_t idx) {
    c->busy = true;
    c->inflight = idx;
    if (c->broken || !SendAll(c->fd, requests[idx].frame)) c->broken = true;
  };

  size_t next = 0;       // First request not yet dispatched.
  size_t completed = 0;  // Replies received.
  double last_dispatch_s = 0.0;
  while (completed < requests.size()) {
    // Dispatch every request that is due.
    double now = now_s();
    while (next < requests.size() && requests[next].at_s <= now) {
      out[next].dispatched_s = now;
      last_dispatch_s = now;
      Lane& lane = *lanes_.at(requests[next].lane);
      Conn* idle = nullptr;
      for (auto& conn : lane.conns) {
        if (!conn->busy && !conn->broken) {
          idle = conn.get();
          break;
        }
      }
      if (idle != nullptr) {
        send(idle, next);
      } else {
        lane.queue.push_back(next);
      }
      ++next;
      now = now_s();
    }
    if (next == requests.size() && now > last_dispatch_s + drain_timeout_s) {
      break;
    }
    const bool any_open = std::any_of(
        pfds.begin(), pfds.end(), [](const pollfd& p) { return p.fd >= 0; });
    if (!any_open) break;
    // Block until a reply arrives or only a fraction of a millisecond is
    // left before the next request is due; that fraction is spun, so the
    // dispatch does not wait on a timer wake-up.
    int wait_ms = 20;  // Draining: replies end the wait.
    if (next < requests.size()) {
      wait_ms = static_cast<int>(
          std::max(0.0, (requests[next].at_s - now_s()) * 1e3));
    }
    if (::poll(pfds.data(), pfds.size(), wait_ms) <= 0) continue;
    for (size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].fd < 0 || pfds[i].revents == 0) continue;
      Conn* c = conns[i];
      const ssize_t n = ::recv(c->fd, chunk.data(), chunk.size(), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        c->broken = true;
        pfds[i].fd = -1;
        continue;
      }
      c->rx.append(chunk.data(), static_cast<size_t>(n));
      size_t offset = 0;
      neutraj::WireFrame frame;
      neutraj::FrameStatus status;
      while ((status = neutraj::DecodeWireFrame(c->rx, &offset, &frame)) ==
             neutraj::FrameStatus::kOk) {
        if (!c->busy) {
          status = neutraj::FrameStatus::kBadMagic;  // Unsolicited.
          break;
        }
        const size_t idx = c->inflight;
        out[idx].done_s = now_s();
        out[idx].done = true;
        out[idx].reply_type = frame.type;
        out[idx].reply_payload = std::move(frame.payload);
        ++completed;
        c->busy = false;
        Lane& lane = *lanes_[c->lane];
        if (!lane.queue.empty()) {
          const size_t queued = lane.queue.front();
          lane.queue.pop_front();
          send(c, queued);
        }
      }
      c->rx.erase(0, offset);
      if (status != neutraj::FrameStatus::kIncomplete &&
          status != neutraj::FrameStatus::kOk) {
        c->broken = true;
        pfds[i].fd = -1;
      }
    }
  }
  for (auto& lane : lanes_) {
    // Requests still queued never went out; a connection still waiting for
    // a reply cannot be trusted to resync with the next phase.
    lane->queue.clear();
    for (auto& conn : lane->conns) {
      if (conn->busy) conn->broken = true;
    }
  }
  return out;
}

PhaseReport SummarizePhase(const std::string& name,
                           const std::vector<Outcome>& outcomes,
                           const std::function<bool(size_t)>& ok) {
  PhaseReport r;
  r.name = name;
  r.sent = outcomes.size();
  std::vector<double> late;
  late.reserve(outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    late.push_back(outcomes[i].LateMs());
    if (ok(i)) ++r.succeeded;
  }
  r.failed = r.sent - r.succeeded;
  r.late_p99_ms = Quantile(late, 0.99);
  // A burst (every request due at once) has no schedule to fall behind.
  const bool burst = !outcomes.empty() && outcomes.back().intended_s == 0.0;
  r.generator_behind = !burst && r.late_p99_ms > kGeneratorBehindMs;
  return r;
}

bool BacklogGrowing(const std::vector<double>& latencies_ms, double slack_ms) {
  const size_t n = latencies_ms.size();
  if (n < 6) return false;
  const size_t third = n / 3;
  const std::vector<double> first(latencies_ms.begin(),
                                  latencies_ms.begin() + third);
  const std::vector<double> last(latencies_ms.end() - third,
                                 latencies_ms.end());
  return Median(last) > 3.0 * Median(first) + slack_ms;
}

CapacityResult SearchCapacity(const std::function<Rung(double)>& probe,
                              double start_rate, double growth,
                              int bisections, double max_rate,
                              int max_descents) {
  CapacityResult result;
  auto run = [&](double rate) {
    Rung r = probe(rate);
    r.rate = rate;
    result.rungs.push_back(r);
    if (r.pass && rate > result.capacity) {
      result.capacity = rate;
      result.achieved = r.achieved;
    }
    return r.pass;
  };

  double lo = 0.0;  // Highest passing rate.
  double hi = 0.0;  // Lowest failing rate.
  double rate = start_rate;
  if (run(rate)) {
    lo = rate;
    while (rate * growth <= max_rate) {
      rate *= growth;
      if (!run(rate)) {
        hi = rate;
        break;
      }
      lo = rate;
    }
  } else {
    hi = rate;
    for (int i = 0; i < max_descents; ++i) {
      rate /= growth;
      if (run(rate)) {
        lo = rate;
        break;
      }
      hi = rate;
    }
  }
  if (lo > 0.0 && hi > 0.0) {
    for (int i = 0; i < bisections; ++i) {
      const double mid = std::sqrt(lo * hi);
      if (run(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  }
  return result;
}

}  // namespace perfbench
