#include "serving.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench_util.h"
#include "common/framing.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace perfbench {

namespace fs = std::filesystem;
using neutraj::Trajectory;
namespace serve = neutraj::serve;

ServingStack::ServingStack(const neutraj::NeuTrajModel& model,
                           const StackOptions& opts, size_t cycle) {
  if (opts.snapshot_path.empty() == opts.store_dir.empty()) {
    throw std::invalid_argument("ServingStack: need a snapshot or a store");
  }
  if (!opts.store_dir.empty()) {
    // The copy is the benchmark's own preparation, not set-up work.
    store_copy_ = (fs::path(opts.work_dir) / ("store-" + std::to_string(cycle)))
                      .string();
    fs::remove_all(store_copy_);
    fs::create_directories(opts.work_dir);
    fs::copy(opts.store_dir, store_copy_, fs::copy_options::recursive);
  }
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  if (opts.traced) files_ = std::make_unique<CountingFileFactory>();
  db_ = std::make_unique<neutraj::EmbeddingDatabase>();
  if (!opts.snapshot_path.empty()) {
    *db_ = neutraj::EmbeddingDatabase::Load(opts.snapshot_path);
  } else {
    neutraj::store::DurableStore::Options store_opts;
    store_opts.data_dir = store_copy_;
    store_opts.files = files_.get();
    store_ = std::make_unique<neutraj::store::DurableStore>(db_.get(),
                                                            store_opts);
    store_->Open();
  }
  load_s_ = SecondsSince(t0);

  const Clock::time_point t1 = Clock::now();
  ivf_ = std::make_unique<neutraj::retrieval::IvfBackend>(db_.get(), opts.ivf);
  ivf_->Build(kServerPoolThreads);
  build_s_ = SecondsSince(t1);

  serve::MicroBatcher::Options batch;
  batch.threads = kServerPoolThreads;
  service_ = std::make_unique<serve::QueryService>(model, db_.get(), batch,
                                                   store_.get());
  if (opts.traced) {
    timed_ = std::make_unique<TimedBackend>(ivf_.get());
    service_->set_retrieval_backend(timed_.get());
  } else {
    service_->set_retrieval_backend(ivf_.get());
  }
  server_ = std::make_unique<serve::Server>(service_.get(),
                                            serve::ServerOptions{});
  server_->Start();
  serve::Client client;
  client.Connect("127.0.0.1", server_->port());
  if (!client.Health().ok) {
    throw std::runtime_error("ServingStack: first Health call failed");
  }
  setup_s_ = SecondsSince(t0);
  setup_cpu_s_ = ProcessCpuSeconds() - cpu0;
}

ServingStack::~ServingStack() {
  server_->Stop();
  server_.reset();
  service_.reset();
  timed_.reset();
  ivf_.reset();
  store_.reset();
  db_.reset();
  if (!store_copy_.empty()) {
    std::error_code ec;
    fs::remove_all(store_copy_, ec);
  }
}

std::vector<double> Phase::LatenciesMs(OpKind kind) const {
  std::vector<double> v;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (kinds[i] == kind && ok[i]) v.push_back(outcomes[i].LatencyMs());
  }
  return v;
}

size_t Phase::failed() const {
  return static_cast<size_t>(std::count(ok.begin(), ok.end(), false));
}

namespace {

std::string TopKFrame(const Trajectory& q, uint32_t k) {
  serve::TopKRequest req;
  req.query = q;
  req.k = k;
  return neutraj::EncodeWireFrame(
      static_cast<uint16_t>(serve::MsgType::kTopKRequest),
      serve::SerializeTopKRequest(req));
}

std::string InsertFrame(const Trajectory& t) {
  serve::InsertRequest req;
  req.traj = t;
  return neutraj::EncodeWireFrame(
      static_cast<uint16_t>(serve::MsgType::kInsertRequest),
      serve::SerializeInsertRequest(req));
}

bool CheckTopK(const Outcome& o, uint32_t k, std::vector<uint64_t>* ids,
               std::vector<double>* dists) {
  if (!o.done ||
      o.reply_type != static_cast<uint16_t>(serve::MsgType::kTopKResponse)) {
    return false;
  }
  serve::TopKResponse resp;
  if (!serve::ParseTopKResponse(o.reply_payload, &resp)) return false;
  if (resp.ids.size() != k || resp.dists.size() != k) return false;
  for (size_t i = 0; i < k; ++i) {
    if (!std::isfinite(resp.dists[i])) return false;
    if (i > 0 && resp.dists[i] < resp.dists[i - 1]) return false;
  }
  *ids = std::move(resp.ids);
  *dists = std::move(resp.dists);
  return true;
}

}  // namespace

Phase RunPhase(OpenLoopClient* client, const Traffic& t, uint64_t* next_id) {
  struct Item {
    double at;
    OpKind kind;
  };
  std::vector<Item> items;
  if (t.seconds < 0.0) {
    items.assign(t.burst_topk, Item{0.0, OpKind::kTopK});
    items.insert(items.end(), t.burst_inserts, Item{0.0, OpKind::kInsert});
  } else {
    // Evenly spaced arrivals; the Insert stream is offset by half a period.
    const auto arrive = [&](double rate, double offset, OpKind kind) {
      const auto count = static_cast<size_t>(std::llround(rate * t.seconds));
      for (size_t i = 0; i < count; ++i) {
        items.push_back({(static_cast<double>(i) + offset) / rate, kind});
      }
    };
    arrive(t.topk_rate, 0.0, OpKind::kTopK);
    arrive(t.insert_rate, 0.5, OpKind::kInsert);
    std::stable_sort(items.begin(), items.end(),
                     [](const Item& a, const Item& b) { return a.at < b.at; });
  }

  Phase ph;
  std::vector<ScheduledRequest> reqs;
  reqs.reserve(items.size());
  for (const Item& it : items) {
    size_t index = 0;
    std::string frame;
    if (it.kind == OpKind::kTopK) {
      index = (*t.query_cursor)++ % t.queries->size();
      frame = TopKFrame((*t.queries)[index], t.k);
    } else {
      index = (*t.insert_cursor)++;
      if (index >= t.inserts->size()) {
        throw std::logic_error("RunPhase: ran out of insert trajectories");
      }
      frame = InsertFrame((*t.inserts)[index]);
    }
    ph.kinds.push_back(it.kind);
    ph.items.push_back(index);
    ph.frames.push_back(frame);
    reqs.push_back({it.at, it.kind == OpKind::kTopK ? size_t{0} : size_t{1},
                    std::move(frame)});
  }

  ph.outcomes = client->Run(reqs);
  const size_t n = ph.outcomes.size();
  ph.ok.assign(n, false);
  ph.topk_ids.resize(n);
  ph.topk_dists.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Outcome& o = ph.outcomes[i];
    if (ph.kinds[i] == OpKind::kTopK) {
      ph.ok[i] = CheckTopK(o, t.k, &ph.topk_ids[i], &ph.topk_dists[i]);
      continue;
    }
    if (!o.done || o.reply_type != static_cast<uint16_t>(
                                       serve::MsgType::kInsertResponse)) {
      continue;
    }
    serve::InsertResponse resp;
    if (!serve::ParseInsertResponse(o.reply_payload, &resp)) continue;
    if (resp.id != *next_id || resp.corpus_size != resp.id + 1) continue;
    ph.ok[i] = true;
    ph.acks.emplace_back(ph.items[i], resp.id);
    ++*next_id;
  }
  return ph;
}

double CompletedRate(const Phase& ph, OpKind kind) {
  size_t n = 0;
  double last_done = 0.0;
  for (size_t i = 0; i < ph.outcomes.size(); ++i) {
    if (ph.kinds[i] != kind || !ph.ok[i]) continue;
    ++n;
    last_done = std::max(last_done, ph.outcomes[i].done_s);
  }
  return last_done > 0.0 ? static_cast<double>(n) / last_done : 0.0;
}

RecallPass MeasureRecall(const neutraj::NeuTrajModel& model,
                         ServingStack* stack,
                         const std::vector<Trajectory>& queries, uint32_t k) {
  RecallPass pass;
  serve::Client client;
  client.Connect("127.0.0.1", stack->port());
  size_t hits = 0;
  for (const Trajectory& q : queries) {
    std::vector<uint64_t> served;
    try {
      served = client.TopK(q, k).ids;
    } catch (const std::exception&) {
      ++pass.failed;
    }
    const neutraj::SearchResult exact = stack->db().TopK(model.Embed(q), k);
    for (size_t id : exact.ids) {
      if (std::find(served.begin(), served.end(), id) != served.end()) ++hits;
    }
    pass.served.push_back(std::move(served));
  }
  pass.recall = static_cast<double>(hits) /
                static_cast<double>(queries.size() * k);
  return pass;
}

CapacityResult SearchServingCapacity(OpenLoopClient* client,
                                     const Traffic& base, double start_rate,
                                     double max_rate, double p99_limit_ms) {
  const auto probe = [&](double rate) {
    Traffic t = base;
    t.topk_rate = rate;
    t.insert_rate = 0.0;
    t.seconds = std::max(kRungSeconds, kRungSamples / rate);
    uint64_t unused_id = 0;
    const Phase ph = RunPhase(client, t, &unused_id);
    Rung r;
    r.sent = ph.outcomes.size();
    r.failed = ph.failed();
    const std::vector<double> lat = ph.LatenciesMs(OpKind::kTopK);
    r.p99_ms = Quantile(lat, 0.99);
    r.achieved = CompletedRate(ph, OpKind::kTopK);
    r.late_p99_ms =
        SummarizePhase("rung", ph.outcomes, [](size_t) { return true; })
            .late_p99_ms;
    r.backlog_growing = BacklogGrowing(lat);
    r.pass = r.failed == 0 && r.p99_ms <= p99_limit_ms && !r.backlog_growing;
    // Let queues and the allocator settle before the next rung.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return r;
  };
  return SearchCapacity(probe, start_rate, 1.25, 3, max_rate);
}

}  // namespace perfbench
