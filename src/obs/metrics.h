// Process-wide observability: a thread-safe metrics registry of counters,
// gauges and log2 latency histograms, with exportable snapshots.
//
// Design goals, in order:
//   1. Recording must be cheap enough for serving hot paths: every Record /
//      Add / Set is a handful of relaxed atomic operations — no locks, no
//      allocation. Callers resolve a metric once (GetCounter et al. return a
//      stable reference for the registry's lifetime) and hammer the pointer.
//   2. Reading is rare and may be slow: Snapshot() walks the registry under
//      its registration mutex and copies everything into plain structs that
//      sinks (JSONL, Prometheus text, the wire protocol's StatsSnapshot)
//      serialize without touching live atomics again.
//   3. Telemetry never influences results: nothing here feeds back into
//      training or search, so recording is allowed to be racy-but-exact
//      (integer totals are exact; float sums are order-dependent only in
//      rounding, never in count).
//
// The process-global registry (MetricsRegistry::Global()) is what the
// trainer, encoder and embedding database record into by default; the serve
// layer gives each QueryService its own instance so two servers in one
// process (common in tests) never share counters.

#ifndef NEUTRAJ_OBS_METRICS_H_
#define NEUTRAJ_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace neutraj::obs {

/// Log2-bucketed latency histogram over microseconds (plain, not
/// thread-safe — the snapshot/aggregation type; ConcurrentHistogram is the
/// recording type). Promoted out of src/serve/stats.h so training and
/// database timings share one bucket layout with the serving endpoints.
///
/// Bucket 0 covers [0, 1] µs inclusive — sub-microsecond samples (and exact
/// zeros, e.g. a no-op fast path measured below timer resolution) land
/// there, not in an undefined range. Bucket i >= 1 covers (2^(i-1), 2^i] µs.
/// 28 buckets span 1 µs to ~134 s with <= 2x relative error on reported
/// percentiles.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 28;

  void Record(double micros);

  uint64_t count() const { return count_; }
  double mean_micros() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double max_micros() const { return max_; }
  double sum_micros() const { return sum_; }

  /// Latency below which fraction `p` (in [0, 1]) of samples fall,
  /// linearly interpolated within the containing bucket (the Prometheus
  /// histogram_quantile rule) and capped at the tracked max — so two
  /// percentiles landing in one log2 bucket still report distinct values
  /// instead of both snapping to the bucket's upper power of two. 0 with
  /// no samples.
  double PercentileMicros(double p) const;

  const std::array<uint64_t, kNumBuckets>& buckets() const { return buckets_; }

  /// The bucket a sample of `micros` lands in, in O(1).
  static size_t BucketFor(double micros);

  /// Inclusive upper bound of bucket `b` in µs (1, 2, 4, ...).
  static double BucketUpperMicros(size_t b) {
    return static_cast<double>(1ull << b);
  }

 private:
  friend class ConcurrentHistogram;

  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Monotonic event count. All operations are lock-free; totals are exact.
class Counter {
 public:
  void Add(uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-written instantaneous value (corpus size, learning rate, ...).
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  /// CAS loop rather than C++20 atomic<double>::fetch_add so the exact same
  /// code compiles under every toolchain the CI matrix uses.
  void Add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Thread-safe recording histogram: same bucket layout as LatencyHistogram,
/// all counters atomic. Record is lock-free (one bucket increment + CAS
/// sum/max); the count is the sum of the buckets. Snapshot copies into a
/// plain LatencyHistogram. Bucket counts and the total are exact under any
/// interleaving; the float sum is exact for integer-valued samples and
/// order-dependent only in rounding otherwise.
class ConcurrentHistogram {
 public:
  void Record(double micros);

  /// Sums the buckets: a read-side cost, so Record stays one increment.
  uint64_t count() const;

  /// Consistent-enough copy for reporting: sum and max may trail the
  /// buckets by in-flight records, which is harmless for telemetry.
  LatencyHistogram Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, LatencyHistogram::kNumBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Everything a registry held at snapshot time, sorted by name (the
/// registry map is ordered), ready for deterministic rendering.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, LatencyHistogram>> histograms;

  /// Collapses everything to (name, value) pairs for flat sinks (the wire
  /// StatsSnapshot, JSONL): counters and gauges verbatim, each histogram as
  /// `<name>/count`, `/mean_us`, `/p50_us`, `/p99_us`, `/max_us`.
  std::vector<std::pair<std::string, double>> Flatten() const;
};

/// Named metric registry. Get* registers on first use and returns a
/// reference that stays valid for the registry's lifetime, so hot paths
/// resolve once and record lock-free thereafter. Requesting an existing
/// name as a different kind throws std::invalid_argument.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name) NEUTRAJ_EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name) NEUTRAJ_EXCLUDES(mu_);
  ConcurrentHistogram& GetHistogram(const std::string& name)
      NEUTRAJ_EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const NEUTRAJ_EXCLUDES(mu_);

  /// The process-wide default registry (trainer, encoder, embedding DB).
  static MetricsRegistry& Global();

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<ConcurrentHistogram> histogram;
  };

  /// Guards registration only; recording goes through the returned
  /// references lock-free. Near-leaf rank: holders may only take the JSONL
  /// sink lock below it, never serve/store/db locks.
  mutable Mutex mu_{lock_rank::kObs};
  /// Ordered: snapshots sort free.
  std::map<std::string, Entry> entries_ NEUTRAJ_GUARDED_BY(mu_);
};

/// Sanitizes a metric name for the Prometheus exposition format:
/// `train/mean_loss` -> `neutraj_train_mean_loss`.
std::string PrometheusName(const std::string& name);

/// Renders a snapshot in the Prometheus text exposition format (counters,
/// gauges, and histograms with cumulative le-buckets). Deterministic for a
/// given snapshot — no timestamps — so it is golden-testable.
std::string RenderPrometheus(const MetricsSnapshot& snap);

}  // namespace neutraj::obs

#endif  // NEUTRAJ_OBS_METRICS_H_
