#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/string_util.h"

namespace neutraj::obs {

size_t LatencyHistogram::BucketFor(double micros) {
  // Bucket 0 is [0, 1] µs inclusive (zeros and sub-µs samples are real:
  // timer resolution, no-op fast paths); bucket i >= 1 is (2^(i-1), 2^i] µs,
  // which is the bit width of ceil(m) - 1. Clamping to the last bound
  // before the cast keeps it in range and sends everything above (and +inf)
  // to the final bucket; NaN and negatives clamp to 0, so bucket 0.
  const double m =
      std::min(std::max(0.0, micros), BucketUpperMicros(kNumBuckets - 1));
  const auto c = static_cast<uint64_t>(std::max(std::ceil(m), 1.0));
  return std::min<size_t>(std::bit_width(c - 1), kNumBuckets - 1);
}

void LatencyHistogram::Record(double micros) {
  const double m = std::max(0.0, micros);
  ++buckets_[BucketFor(m)];
  ++count_;
  sum_ += m;
  max_ = std::max(max_, m);
}

double LatencyHistogram::PercentileMicros(double p) const {
  if (count_ == 0) return 0.0;
  const double target = std::clamp(p, 0.0, 1.0) * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets_[b];
    if (static_cast<double>(seen) < target) continue;
    // Linear interpolation inside the winning bucket (the Prometheus
    // histogram_quantile rule): without it every percentile snaps to the
    // bucket's upper power of two, and a log2 layout reports p50 == p99
    // whenever one bucket holds both — exactly the p50 == p99 == 8192 µs
    // artifact BENCH_serving.json used to show on the batched phase.
    const double lower = b == 0 ? 0.0 : BucketUpperMicros(b - 1);
    const double upper = BucketUpperMicros(b);
    const double frac =
        std::clamp((target - before) / static_cast<double>(buckets_[b]),
                   0.0, 1.0);
    // No sample exceeds the tracked max, so no percentile should either —
    // this also makes single-sample histograms report the sample itself and
    // keeps the open-ended overflow bucket honest.
    return std::min(lower + frac * (upper - lower), max_);
  }
  return std::min(BucketUpperMicros(kNumBuckets - 1), max_);
}

void ConcurrentHistogram::Record(double micros) {
  const double m = std::max(0.0, micros);
  buckets_[LatencyHistogram::BucketFor(m)].fetch_add(
      1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + m, std::memory_order_relaxed)) {
  }
  double mx = max_.load(std::memory_order_relaxed);
  while (m > mx &&
         !max_.compare_exchange_weak(mx, m, std::memory_order_relaxed)) {
  }
}

uint64_t ConcurrentHistogram::count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

LatencyHistogram ConcurrentHistogram::Snapshot() const {
  LatencyHistogram out;
  uint64_t total = 0;
  for (size_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    out.buckets_[b] = buckets_[b].load(std::memory_order_relaxed);
    total += out.buckets_[b];
  }
  out.count_ = total;
  out.sum_ = sum_.load(std::memory_order_relaxed);
  out.max_ = max_.load(std::memory_order_relaxed);
  return out;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  Entry& e = entries_[name];
  if (e.gauge != nullptr || e.histogram != nullptr) {
    throw std::invalid_argument("MetricsRegistry: '" + name +
                                "' already registered as a different kind");
  }
  if (e.counter == nullptr) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  Entry& e = entries_[name];
  if (e.counter != nullptr || e.histogram != nullptr) {
    throw std::invalid_argument("MetricsRegistry: '" + name +
                                "' already registered as a different kind");
  }
  if (e.gauge == nullptr) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

ConcurrentHistogram& MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  Entry& e = entries_[name];
  if (e.counter != nullptr || e.gauge != nullptr) {
    throw std::invalid_argument("MetricsRegistry: '" + name +
                                "' already registered as a different kind");
  }
  if (e.histogram == nullptr) e.histogram = std::make_unique<ConcurrentHistogram>();
  return *e.histogram;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, entry] : entries_) {
    if (entry.counter != nullptr) {
      snap.counters.emplace_back(name, entry.counter->Value());
    } else if (entry.gauge != nullptr) {
      snap.gauges.emplace_back(name, entry.gauge->Value());
    } else if (entry.histogram != nullptr) {
      snap.histograms.emplace_back(name, entry.histogram->Snapshot());
    }
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

std::vector<std::pair<std::string, double>> MetricsSnapshot::Flatten() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(counters.size() + gauges.size() + histograms.size() * 5);
  for (const auto& [name, v] : counters) {
    out.emplace_back(name, static_cast<double>(v));
  }
  for (const auto& [name, v] : gauges) out.emplace_back(name, v);
  for (const auto& [name, h] : histograms) {
    out.emplace_back(name + "/count", static_cast<double>(h.count()));
    out.emplace_back(name + "/mean_us", h.mean_micros());
    out.emplace_back(name + "/p50_us", h.PercentileMicros(0.50));
    out.emplace_back(name + "/p99_us", h.PercentileMicros(0.99));
    out.emplace_back(name + "/max_us", h.max_micros());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string PrometheusName(const std::string& name) {
  std::string out = "neutraj_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string RenderPrometheus(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    const std::string p = PrometheusName(name);
    out += StrFormat("# TYPE %s counter\n", p.c_str());
    out += StrFormat("%s %llu\n", p.c_str(),
                     static_cast<unsigned long long>(v));
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string p = PrometheusName(name);
    out += StrFormat("# TYPE %s gauge\n", p.c_str());
    out += StrFormat("%s %.17g\n", p.c_str(), v);
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string p = PrometheusName(name);
    out += StrFormat("# TYPE %s histogram\n", p.c_str());
    uint64_t cumulative = 0;
    for (size_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
      cumulative += h.buckets()[b];
      out += StrFormat("%s_bucket{le=\"%.0f\"} %llu\n", p.c_str(),
                       LatencyHistogram::BucketUpperMicros(b),
                       static_cast<unsigned long long>(cumulative));
    }
    out += StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", p.c_str(),
                     static_cast<unsigned long long>(h.count()));
    out += StrFormat("%s_sum %.17g\n", p.c_str(), h.sum_micros());
    out += StrFormat("%s_count %llu\n", p.c_str(),
                     static_cast<unsigned long long>(h.count()));
  }
  return out;
}

}  // namespace neutraj::obs
