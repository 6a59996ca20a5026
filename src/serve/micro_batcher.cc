#include "serve/micro_batcher.h"

#include <algorithm>
#include <stdexcept>

#include "common/stopwatch.h"

namespace neutraj::serve {

MicroBatcher::MicroBatcher(const NeuTrajModel& model, const Options& opts)
    : model_(model),
      opts_(opts),
      pool_(std::max<size_t>(1, opts.threads)),
      workspaces_(std::max<size_t>(1, opts.threads)) {
  obs::MetricsRegistry& reg = opts_.registry != nullptr
                                  ? *opts_.registry
                                  : obs::MetricsRegistry::Global();
  batch_size_hist_ = &reg.GetHistogram("serve/batcher/batch_size");
  wait_us_hist_ = &reg.GetHistogram("serve/batcher/wait_us");
  requests_counter_ = &reg.GetCounter("serve/batcher/requests");
  batches_counter_ = &reg.GetCounter("serve/batcher/batches");
  if (opts_.max_batch == 0) {
    throw std::invalid_argument("MicroBatcher: max_batch must be >= 1");
  }
  batcher_ = std::thread([this] { BatcherLoop(); });
}

MicroBatcher::~MicroBatcher() { Shutdown(); }

std::future<MicroBatcher::BatchResult> MicroBatcher::SubmitBatch(
    std::vector<Trajectory> trajs, std::vector<obs::RequestTrace*> traces) {
  auto group = std::make_shared<Group>();
  group->trajs = std::move(trajs);
  const size_t n = group->trajs.size();
  group->traces = std::move(traces);
  group->traces.resize(n, nullptr);
  group->submit_us.resize(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (group->traces[i] != nullptr) {
      group->submit_us[i] = group->traces[i]->ElapsedMicros();
    }
  }
  group->result.embeddings.resize(n);
  group->result.errors.resize(n);
  group->result.bad_input.resize(n, 0);
  group->remaining.store(n);
  std::future<BatchResult> fut = group->promise.get_future();
  if (n == 0) {
    group->promise.set_value(std::move(group->result));
    return fut;
  }
  {
    MutexLock lock(mu_);
    if (shutdown_) {
      throw std::runtime_error("MicroBatcher: submit after shutdown");
    }
    for (size_t i = 0; i < n; ++i) queue_.push_back(Item{group, i});
    stats_.requests += n;
  }
  requests_counter_->Add(n);
  work_ready_.NotifyOne();
  return fut;
}

void MicroBatcher::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_ready_.NotifyAll();
  MutexLock join_lock(join_mu_);
  if (batcher_.joinable()) batcher_.join();
}

MicroBatcher::Stats MicroBatcher::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void MicroBatcher::BatcherLoop() {
  std::vector<Item> batch;
  while (true) {
    batch.clear();
    double waited_us = 0.0;
    size_t take = 0;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) work_ready_.Wait(mu_);
      if (queue_.empty() && shutdown_) return;

      // Straggler window: once work exists, give concurrent submitters a
      // short chance to join this batch. Bounded by max_batch so a firehose
      // never waits, and skipped entirely during shutdown (drain fast).
      if (opts_.max_wait_micros > 0 && !shutdown_ &&
          queue_.size() < opts_.max_batch) {
        const Stopwatch wait_sw;
        const auto deadline = DeadlineAfterMicros(opts_.max_wait_micros);
        while (queue_.size() < opts_.max_batch && !shutdown_) {
          if (!work_ready_.WaitUntil(mu_, deadline)) break;
        }
        waited_us = wait_sw.ElapsedMicros();
      }

      take = std::min(queue_.size(), opts_.max_batch);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ++stats_.batches;
      stats_.max_batch = std::max<uint64_t>(stats_.max_batch, take);
    }
    batches_counter_->Increment();
    batch_size_hist_->Record(static_cast<double>(take));
    wait_us_hist_->Record(waited_us);
    RunBatch(&batch);
  }
}

void MicroBatcher::RunBatch(std::vector<Item>* batch) {
  // Per-item execution with per-item error capture: one bad trajectory
  // (e.g. empty) fails only its own BatchResult slot, never the whole
  // group. Workers write disjoint indices; the group's promise fires when
  // the last item — possibly in a later batch — lands.
  auto run_item = [this](Item* item, nn::CellWorkspace* ws) {
    Group& g = *item->group;
    const size_t i = item->index;
    obs::RequestTrace* trace = g.traces[i];
    if (trace != nullptr) {
      // queue_wait = submit → the moment a worker picks the item up. The
      // span is recorded from this worker, so its tid names who dequeued.
      trace->Record("queue_wait", g.submit_us[i],
                    trace->ElapsedMicros() - g.submit_us[i]);
    }
    obs::StageSpan encode_span(trace, "encode");
    try {
      g.result.embeddings[i] = model_.Embed(g.trajs[i], ws);
    } catch (const std::invalid_argument& e) {
      g.result.errors[i] = e.what();
      g.result.bad_input[i] = 1;
    } catch (const std::exception& e) {
      g.result.errors[i] = e.what();
    }
    // The span must close BEFORE the promise can fire: once set_value runs,
    // the submitter may wake and hand the trace to RequestTracer::Finish,
    // and a late Record would race the finalize read.
    encode_span.Stop();
    if (g.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      g.promise.set_value(std::move(g.result));
    }
  };

  // One workspace per chunk; ForEachChunk is a barrier, so workspaces are
  // never shared across batches either.
  ForEachChunk(&pool_, batch->size(), [&](size_t lo, size_t hi, size_t chunk) {
    for (size_t i = lo; i < hi; ++i) run_item(&(*batch)[i], &workspaces_[chunk]);
  });
}

}  // namespace neutraj::serve
