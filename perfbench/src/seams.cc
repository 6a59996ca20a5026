#include "seams.h"

#include <algorithm>

#include "bench_util.h"

namespace perfbench {

namespace {

double MicrosSince(Clock::time_point t0) { return SecondsSince(t0) * 1e6; }

class CountingFile final : public neutraj::store::File {
 public:
  CountingFile(std::unique_ptr<neutraj::store::File> inner,
               CountingFileFactory* owner)
      : inner_(std::move(inner)), owner_(owner) {}

  void Append(const std::string& bytes) override {
    inner_->Append(bytes);
    owner_->AddBytes(bytes.size());
  }
  void Sync() override {
    const Clock::time_point t0 = Clock::now();
    inner_->Sync();
    owner_->AddFsync(SecondsSince(t0));
  }
  void Truncate() override {
    const Clock::time_point t0 = Clock::now();
    inner_->Truncate();
    owner_->AddFsync(SecondsSince(t0));
  }

 private:
  std::unique_ptr<neutraj::store::File> inner_;
  CountingFileFactory* owner_;
};

}  // namespace

neutraj::SearchResult TimedBackend::TopK(const neutraj::nn::Vector& query,
                                         size_t k, int64_t exclude,
                                         size_t nprobe,
                                         neutraj::obs::RequestTrace* trace) {
  if (!timing_.load()) return inner_->TopK(query, k, exclude, nprobe, trace);
  const Clock::time_point t0 = Clock::now();
  neutraj::SearchResult result = inner_->TopK(query, k, exclude, nprobe, trace);
  const double us = MicrosSince(t0);
  std::lock_guard<std::mutex> lock(mu_);
  samples_.topk_us.push_back(us);
  return result;
}

void TimedBackend::NotifyInsert(size_t id,
                                const neutraj::nn::Vector& embedding) {
  if (!timing_.load()) {
    inner_->NotifyInsert(id, embedding);
    return;
  }
  const Clock::time_point t0 = Clock::now();
  inner_->NotifyInsert(id, embedding);
  const double us = MicrosSince(t0);
  std::lock_guard<std::mutex> lock(mu_);
  samples_.notify_us.push_back(us);
}

TimedBackend::Samples TimedBackend::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

double HistogramDelta::PercentileUs(double p) const {
  using neutraj::obs::LatencyHistogram;
  if (count == 0) return 0.0;
  const double target = std::clamp(p, 0.0, 1.0) * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets[b];
    if (static_cast<double>(seen) < target) continue;
    const double lower =
        b == 0 ? 0.0 : LatencyHistogram::BucketUpperMicros(b - 1);
    const double upper = LatencyHistogram::BucketUpperMicros(b);
    const double frac = std::clamp(
        (target - before) / static_cast<double>(buckets[b]), 0.0, 1.0);
    return std::min(lower + frac * (upper - lower), max_us);
  }
  return max_us;
}

double HistogramDelta::MeanUs() const {
  return count == 0 ? 0.0 : sum_us / static_cast<double>(count);
}

namespace {

const neutraj::obs::LatencyHistogram* FindHistogram(
    const neutraj::obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

uint64_t FindCounter(const neutraj::obs::MetricsSnapshot& snap,
                     const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace

HistogramDelta HistogramDeltaOf(const neutraj::obs::MetricsSnapshot& before,
                                const neutraj::obs::MetricsSnapshot& after,
                                const std::string& name) {
  HistogramDelta d;
  const neutraj::obs::LatencyHistogram* b = FindHistogram(before, name);
  const neutraj::obs::LatencyHistogram* a = FindHistogram(after, name);
  if (a == nullptr) return d;
  for (size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = a->buckets()[i] - (b != nullptr ? b->buckets()[i] : 0);
  }
  d.count = a->count() - (b != nullptr ? b->count() : 0);
  d.sum_us = a->sum_micros() - (b != nullptr ? b->sum_micros() : 0.0);
  d.max_us = a->max_micros();
  return d;
}

uint64_t CounterDeltaOf(const neutraj::obs::MetricsSnapshot& before,
                        const neutraj::obs::MetricsSnapshot& after,
                        const std::string& name) {
  return FindCounter(after, name) - FindCounter(before, name);
}

std::unique_ptr<neutraj::store::File> CountingFileFactory::OpenAppend(
    const std::string& path) {
  return std::make_unique<CountingFile>(
      neutraj::store::FileFactory::Posix().OpenAppend(path), this);
}

std::unique_ptr<neutraj::store::File> CountingFileFactory::CreateTruncate(
    const std::string& path) {
  return std::make_unique<CountingFile>(
      neutraj::store::FileFactory::Posix().CreateTruncate(path), this);
}

void CountingFileFactory::Rename(const std::string& from,
                                 const std::string& to) {
  neutraj::store::FileFactory::Posix().Rename(from, to);
}

void CountingFileFactory::SyncDirectory(const std::string& dir) {
  const Clock::time_point t0 = Clock::now();
  neutraj::store::FileFactory::Posix().SyncDirectory(dir);
  AddFsync(SecondsSince(t0));
}

void CountingFileFactory::AddFsync(double seconds) {
  fsyncs_.fetch_add(1);
  double cur = fsync_seconds_.load();
  while (!fsync_seconds_.compare_exchange_weak(cur, cur + seconds)) {
  }
}

CountingFileFactory::Counts CountingFileFactory::counts() const {
  return Counts{bytes_.load(), fsyncs_.load(), fsync_seconds_.load()};
}

void CountingFileFactory::Reset() {
  bytes_.store(0);
  fsyncs_.store(0);
  fsync_seconds_.store(0.0);
}

}  // namespace perfbench
