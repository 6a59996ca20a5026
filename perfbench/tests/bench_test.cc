// Tests of the benchmark's own measuring rules: the percentile rule,
// open-loop accounting, the capacity search and reading the program's own
// telemetry as the difference of two registry snapshots.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "common/framing.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "seams.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i + 1));
  return v;
}

TEST(PercentileRule, ReportsP99WithTenSamplesBeyond) {
  const Tail t = TailPercentile(Ramp(1000));
  EXPECT_EQ(t.q, 0.99);
  EXPECT_FALSE(t.fell_back);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.n, 1000u);
}

TEST(PercentileRule, FallsBackWhenTooFewSamplesBeyond) {
  const Tail t = TailPercentile(Ramp(500));
  EXPECT_TRUE(t.fell_back);
  EXPECT_EQ(t.q, 0.98);
  EXPECT_GE(t.beyond, 10u);
  EXPECT_EQ(t.value, 490.0);

  const Tail tiny = TailPercentile(Ramp(5));
  EXPECT_TRUE(tiny.fell_back);
  EXPECT_EQ(tiny.q, 0.5);
  EXPECT_EQ(tiny.value, 3.0);
}

TEST(PercentileRule, MedianAndQuantile) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(Quantile(Ramp(100), 0.5), 50.0);
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
}

/// A one-connection echo server that replies to each frame in order and
/// sleeps `stall_ms` before replying to frame number `stall_at`.
class StallingEchoServer {
 public:
  StallingEchoServer(size_t stall_at, int stall_ms) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, stall_at, stall_ms] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::string buf;
      char chunk[4096];
      size_t seen = 0;
      while (true) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) break;
        buf.append(chunk, static_cast<size_t>(n));
        size_t offset = 0;
        neutraj::WireFrame f;
        while (neutraj::DecodeWireFrame(buf, &offset, &f) ==
               neutraj::FrameStatus::kOk) {
          if (seen++ == stall_at) {
            std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
          }
          const std::string reply = neutraj::EncodeWireFrame(
              static_cast<uint16_t>(f.type + 1), f.payload);
          if (::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL) < 0) break;
        }
        buf.erase(0, offset);
      }
      ::close(fd);
    });
  }

  ~StallingEchoServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
  }

  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(OpenLoop, StallRaisesLatencyOfRequestsQueuedBehindIt) {
  constexpr size_t kStallAt = 5;
  constexpr double kStallMs = 100.0;
  constexpr double kSpacingS = 0.005;
  StallingEchoServer server(kStallAt, static_cast<int>(kStallMs));
  std::vector<ScheduledRequest> reqs;
  for (size_t i = 0; i < 40; ++i) {
    reqs.push_back({static_cast<double>(i) * kSpacingS, 0,
                    neutraj::EncodeWireFrame(5, "payload")});
  }
  std::vector<Outcome> out;
  {
    OpenLoopClient client("127.0.0.1", server.port(), {1});
    out = client.Run(reqs, 5.0);
  }
  ASSERT_EQ(out.size(), reqs.size());
  const double stall_end_s = out[kStallAt].intended_s + kStallMs / 1e3;
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_TRUE(out[i].done) << i;
    EXPECT_EQ(out[i].reply_type, 6);
    // Open loop: the generator kept its schedule through the stall.
    EXPECT_LT(out[i].LateMs(), 20.0) << i;
    if (i < kStallAt) {
      EXPECT_LT(out[i].LatencyMs(), 50.0) << i;
    }
    if (i >= kStallAt && out[i].intended_s < stall_end_s) {
      // Measured from its intended send time, each request queued behind
      // the stall waits out the rest of it.
      const double remaining_ms = (stall_end_s - out[i].intended_s) * 1e3;
      EXPECT_GE(out[i].LatencyMs(), remaining_ms - 1.0) << i;
    }
  }
  // Requests due well after the stall are fast again.
  EXPECT_LT(out.back().LatencyMs(), 50.0);
}

TEST(Capacity, BacklogGrowingDetectsARisingQueue) {
  EXPECT_FALSE(BacklogGrowing(std::vector<double>(300, 2.0)));
  std::vector<double> rising;
  for (size_t i = 0; i < 300; ++i) rising.push_back(2.0 + 0.5 * static_cast<double>(i));
  EXPECT_TRUE(BacklogGrowing(rising));
  // A stall confined to a few samples in the last third is not a backlog.
  std::vector<double> blip(300, 2.0);
  for (size_t i = 250; i < 270; ++i) blip[i] = 80.0;
  EXPECT_FALSE(BacklogGrowing(blip));
}

TEST(Capacity, SearchStopsAtTheFirstGrowingBacklog) {
  constexpr double kKnee = 1000.0;
  std::vector<double> probed;
  const auto probe = [&](double rate) {
    probed.push_back(rate);
    Rung r;
    r.backlog_growing = rate >= kKnee;
    r.pass = !r.backlog_growing;
    r.achieved = 0.99 * rate;
    return r;
  };
  const CapacityResult res = SearchCapacity(probe, 300.0, 1.25, 3, 1e6);
  // The ascent: 300 * 1.25^k up to the first failing rung, 1144.4.
  const double first_fail = 300.0 * std::pow(1.25, 6);
  ASSERT_GE(probed.size(), 7u);
  EXPECT_NEAR(probed[6], first_fail, 1e-9);
  for (double r : probed) EXPECT_LE(r, first_fail + 1e-9);
  EXPECT_EQ(probed.size(), 7u + 3u);  // Then exactly three bisections.
  EXPECT_LT(res.capacity, kKnee);
  EXPECT_GT(res.capacity, kKnee / std::pow(1.25, 1.0 / 8.0));
  EXPECT_EQ(res.rungs.size(), probed.size());
  EXPECT_FALSE(res.rungs[6].pass);
  EXPECT_DOUBLE_EQ(res.achieved, 0.99 * res.capacity);
}

TEST(Capacity, DescendsWhenTheFirstRungFails) {
  const auto probe = [](double rate) {
    Rung r;
    r.pass = rate < 100.0;
    return r;
  };
  const CapacityResult res = SearchCapacity(probe, 300.0, 1.25, 3, 1e6);
  EXPECT_GT(res.capacity, 0.0);
  EXPECT_LT(res.capacity, 100.0);
  EXPECT_GT(res.capacity, 100.0 / std::pow(1.25, 1.0 / 8.0) - 1e-9);
}

TEST(RegistryDelta, CountsOnlyWhatWasRecordedBetweenSnapshots) {
  neutraj::obs::MetricsRegistry reg;
  neutraj::obs::ConcurrentHistogram& h = reg.GetHistogram("x_us");
  neutraj::obs::Counter& c = reg.GetCounter("n");
  for (int i = 0; i < 100; ++i) h.Record(5000.0);  // Before: a slow mode.
  c.Add(7);
  const neutraj::obs::MetricsSnapshot before = reg.Snapshot();
  neutraj::obs::ConcurrentHistogram& fresh = reg.GetHistogram("y_us");
  for (double us : {3.0, 10.0, 12.0, 100.0, 300.0}) {
    h.Record(us);
    fresh.Record(us);
  }
  c.Add(5);
  const neutraj::obs::MetricsSnapshot after = reg.Snapshot();

  const HistogramDelta d = HistogramDeltaOf(before, after, "x_us");
  EXPECT_EQ(d.count, 5u);
  EXPECT_DOUBLE_EQ(d.MeanUs(), 425.0 / 5.0);
  // Same interpolation as a histogram holding only the new samples (below
  // the top bucket, where only the max each side tracks differs).
  const neutraj::obs::LatencyHistogram only_new = fresh.Snapshot();
  for (double p : {0.1, 0.5, 0.7}) {
    EXPECT_DOUBLE_EQ(d.PercentileUs(p), only_new.PercentileMicros(p)) << p;
  }
  EXPECT_LT(d.PercentileUs(0.5), 16.0);  // The 5000 us mode is gone.
  EXPECT_EQ(CounterDeltaOf(before, after, "n"), 5u);
  EXPECT_EQ(HistogramDeltaOf(before, after, "y_us").count, 5u);  // New.
  EXPECT_EQ(HistogramDeltaOf(before, after, "absent").count, 0u);
  EXPECT_EQ(HistogramDeltaOf(before, after, "absent").PercentileUs(0.5), 0.0);
}

}  // namespace
}  // namespace perfbench
