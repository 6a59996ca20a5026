// Timing wrappers installed at the program's public seams.
//
// The benchmark times layers from outside the library: the retrieval layer
// through the RetrievalBackend interface (QueryService::
// set_retrieval_backend), the store's I/O through the store::FileFactory
// seam (DurableStore::Options::files). Neither wrapper changes a result.
// The rest comes from the telemetry the program records anyway, read as the
// difference of two snapshots of a service's own MetricsRegistry.

#ifndef PERFBENCH_SEAMS_H_
#define PERFBENCH_SEAMS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "retrieval/backend.h"
#include "store/file.h"

namespace perfbench {

/// Times whole calls of the backend it wraps, which does all the work, so
/// served ids and scores are the inner backend's. How a TopK splits into
/// probe and re-rank is the inner backend's own telemetry (IvfBackend's
/// retrieval/probe_us and retrieval/rerank_us, in the registry the service
/// attaches it to). With timing off, calls are forwarded untimed, which lets
/// one phase interleave timed and untimed stretches.
class TimedBackend final : public neutraj::retrieval::RetrievalBackend {
 public:
  /// `inner` must outlive the wrapper.
  explicit TimedBackend(neutraj::retrieval::RetrievalBackend* inner)
      : inner_(inner) {}

  const char* name() const override { return inner_->name(); }
  neutraj::SearchResult TopK(const neutraj::nn::Vector& query, size_t k,
                             int64_t exclude, size_t nprobe,
                             neutraj::obs::RequestTrace* trace) override;
  void NotifyInsert(size_t id, const neutraj::nn::Vector& embedding) override;
  void AttachMetrics(neutraj::obs::MetricsRegistry* registry) override {
    inner_->AttachMetrics(registry);
  }

  void set_timing(bool on) { timing_.store(on); }

  struct Samples {
    std::vector<double> topk_us;
    std::vector<double> notify_us;
  };
  /// Copies the samples recorded so far.
  Samples samples() const;

 private:
  neutraj::retrieval::RetrievalBackend* inner_;
  std::atomic<bool> timing_{true};
  mutable std::mutex mu_;
  Samples samples_;
};

/// The samples one registry histogram gained between two snapshots.
struct HistogramDelta {
  std::array<uint64_t, neutraj::obs::LatencyHistogram::kNumBuckets> buckets{};
  uint64_t count = 0;
  double sum_us = 0.0;
  double max_us = 0.0;  ///< The later snapshot's max: an upper bound.

  /// Quantile `p` in [0, 1], interpolated within its log2 bucket the way
  /// LatencyHistogram::PercentileMicros does; 0 when empty.
  double PercentileUs(double p) const;
  double MeanUs() const;
};
/// Histogram `name` of `after` minus that of `before` (an absent
/// histogram counts as empty).
HistogramDelta HistogramDeltaOf(const neutraj::obs::MetricsSnapshot& before,
                                const neutraj::obs::MetricsSnapshot& after,
                                const std::string& name);
/// Counter `name` of `after` minus that of `before`.
uint64_t CounterDeltaOf(const neutraj::obs::MetricsSnapshot& before,
                        const neutraj::obs::MetricsSnapshot& after,
                        const std::string& name);

/// Counts the bytes and syncs the store writes through the FileFactory seam
/// and times the syncs, forwarding to FileFactory::Posix(). Counts are
/// exact.
class CountingFileFactory final : public neutraj::store::FileFactory {
 public:
  std::unique_ptr<neutraj::store::File> OpenAppend(
      const std::string& path) override;
  std::unique_ptr<neutraj::store::File> CreateTruncate(
      const std::string& path) override;
  void Rename(const std::string& from, const std::string& to) override;
  void SyncDirectory(const std::string& dir) override;

  struct Counts {
    uint64_t bytes_appended = 0;
    uint64_t fsyncs = 0;  ///< File syncs, truncations and directory syncs.
    double fsync_seconds = 0.0;  ///< Time spent in them.
  };
  Counts counts() const;
  void Reset();

  // Called by the wrapped files.
  void AddBytes(uint64_t n) { bytes_.fetch_add(n); }
  void AddFsync(double seconds);

 private:
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<double> fsync_seconds_{0.0};
};

}  // namespace perfbench

#endif  // PERFBENCH_SEAMS_H_
