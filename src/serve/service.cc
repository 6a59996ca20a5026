#include "serve/service.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "core/similarity.h"

namespace neutraj::serve {

namespace {

WireFrame ErrorFrame(ErrorCode code, const std::string& message) {
  WireFrame f;
  f.type = static_cast<uint16_t>(MsgType::kError);
  f.payload = SerializeError({code, message});
  return f;
}

WireFrame Reply(MsgType type, std::string payload) {
  WireFrame f;
  f.type = static_cast<uint16_t>(type);
  f.payload = std::move(payload);
  return f;
}

/// Shared request validation: the encoder rejects empty trajectories, but
/// the service refuses them up front with a precise message instead of an
/// internal error.
void CheckTrajectory(const Trajectory& t, const char* what) {
  if (t.empty()) {
    throw std::invalid_argument(std::string(what) + " is empty");
  }
}

/// Runs one pass of a request's handling, mapping an escaping exception to
/// its kError reply: std::invalid_argument is the request's fault
/// (kBadRequest), anything else the server's (kInternal).
template <typename Fn>
auto Guarded(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::invalid_argument& e) {
    return ErrorFrame(ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    return ErrorFrame(ErrorCode::kInternal, e.what());
  }
}

/// Item `i` of a batcher group's result; rethrows its failure with the
/// type Guarded maps to the right error code.
nn::Vector& Embedded(MicroBatcher::BatchResult* r, size_t i) {
  if (!r->errors[i].empty()) {
    if (r->bad_input[i] != 0) throw std::invalid_argument(r->errors[i]);
    throw std::runtime_error(r->errors[i]);
  }
  return r->embeddings[i];
}

/// The batcher must register into the service's own registry, whatever the
/// caller put (or left unset) in the options.
MicroBatcher::Options WithRegistry(MicroBatcher::Options opts,
                                   obs::MetricsRegistry* registry) {
  opts.registry = registry;
  return opts;
}

}  // namespace

QueryService::QueryService(const NeuTrajModel& model, EmbeddingDatabase* db,
                           const MicroBatcher::Options& batch_opts,
                           store::DurableStore* store)
    : model_(model),
      db_(db),
      store_(store),
      batcher_(model, WithRegistry(batch_opts, &registry_)),
      stats_(&registry_) {
  if (db == nullptr) {
    throw std::invalid_argument("QueryService: null EmbeddingDatabase");
  }
  // Route the live corpus's build/insert/TopK timings into this service's
  // registry so kStatsRequest ships them alongside the endpoint latencies.
  db_->AttachMetrics(&registry_);
  // Likewise the WAL/snapshot/recovery counters when durability is on.
  if (store_ != nullptr) store_->AttachMetrics(&registry_);
}

WireFrame QueryService::FrameErrorReply(FrameStatus status) {
  const ErrorCode code = status == FrameStatus::kOversized
                             ? ErrorCode::kOversizedFrame
                             : ErrorCode::kMalformedFrame;
  return ErrorFrame(code, std::string("frame error: ") + FrameStatusName(status));
}

StatsSnapshot QueryService::Snapshot() const {
  StatsSnapshot snap = stats_.Snapshot();
  snap.corpus_size = db_->size();
  snap.dim = static_cast<uint32_t>(db_->dim());
  const MicroBatcher::Stats bs = batcher_.stats();
  snap.batched_requests = bs.requests;
  snap.batches = bs.batches;
  snap.mean_batch_size = bs.mean_batch_size();
  snap.metrics = registry_.Snapshot().Flatten();
  return snap;
}

/// One request of a burst between the two passes.
struct QueryService::Slot {
  Endpoint endpoint = Endpoint::kCount;  ///< kCount: unknown type, no stats.
  std::shared_ptr<obs::RequestTrace> trace;
  bool answered = false;
  size_t first = 0;  ///< Index of its first trajectory in the burst's group.
  TopKRequest topk;  ///< TopK's k, exclude and nprobe (the query is moved).
};

std::vector<WireFrame> QueryService::HandleBurst(
    std::vector<WireFrame> requests,
    std::vector<std::shared_ptr<obs::RequestTrace>>* traces_out) {
  const Stopwatch sw;
  const size_t n = requests.size();
  std::vector<Slot> slots(n);
  std::vector<WireFrame> replies(n);
  auto answer = [&](size_t i, WireFrame reply) {
    Slot& slot = slots[i];
    slot.answered = true;
    if (slot.endpoint != Endpoint::kCount) {
      stats_.Record(slot.endpoint, sw.ElapsedMicros(),
                    reply.type == static_cast<uint16_t>(MsgType::kError));
    }
    if (traces_out == nullptr) tracer_.Finish(slot.trace);
    replies[i] = std::move(reply);
  };

  // Pass 1: admit in request order; every trajectory joins one group.
  std::vector<Trajectory> group;
  std::vector<obs::RequestTrace*> group_traces;
  for (size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    slot.first = group.size();
    std::optional<WireFrame> refused =
        Guarded([&] { return Admit(requests[i], &slot, &group); });
    if (refused.has_value()) answer(i, std::move(*refused));
    group_traces.resize(group.size(), slot.trace.get());
  }

  MicroBatcher::BatchResult embedded;
  if (!group.empty()) {
    const size_t m = group.size();
    try {
      embedded =
          batcher_.SubmitBatch(std::move(group), std::move(group_traces))
              .get();
    } catch (const std::exception& e) {
      // Submit after batcher shutdown: every item fails, each in its slot.
      embedded.embeddings.assign(m, nn::Vector());
      embedded.errors.assign(m, e.what());
      embedded.bad_input.assign(m, 0);
    }
  }

  // Pass 2: answer in request order, so later requests see earlier inserts.
  for (size_t i = 0; i < n; ++i) {
    if (slots[i].answered) continue;
    answer(i, Guarded([&] {
             return Answer(requests[i], &slots[i], &embedded);
           }));
  }
  if (traces_out != nullptr) {
    traces_out->clear();
    for (Slot& slot : slots) traces_out->push_back(std::move(slot.trace));
  }
  return replies;
}

WireFrame QueryService::Handle(const WireFrame& request,
                               std::shared_ptr<obs::RequestTrace>* trace_out) {
  std::vector<WireFrame> burst;
  burst.push_back(request);
  std::vector<std::shared_ptr<obs::RequestTrace>> traces;
  std::vector<WireFrame> replies =
      HandleBurst(std::move(burst), trace_out != nullptr ? &traces : nullptr);
  if (trace_out != nullptr) *trace_out = std::move(traces[0]);
  return std::move(replies[0]);
}

std::optional<WireFrame> QueryService::Admit(const WireFrame& request,
                                             Slot* slot,
                                             std::vector<Trajectory>* group) {
  const auto type = static_cast<MsgType>(request.type);
  switch (type) {
    // Read-only endpoints, answered at their turn in pass 2 and served
    // while draining: a drain is exactly when the last traces are most
    // interesting.
    case MsgType::kHealthRequest:
      slot->endpoint = Endpoint::kHealth;
      return std::nullopt;
    case MsgType::kStatsRequest:
      slot->endpoint = Endpoint::kStats;
      return std::nullopt;
    case MsgType::kTraceDumpRequest:
      slot->endpoint = Endpoint::kTraceDump;
      return std::nullopt;

    case MsgType::kEncodeRequest: {
      slot->endpoint = Endpoint::kEncode;
      if (draining_.load()) {
        return ErrorFrame(ErrorCode::kShuttingDown, "server is draining");
      }
      EncodeRequest req;
      if (!ParseEncodeRequest(request.payload, &req)) {
        return ErrorFrame(ErrorCode::kBadRequest, "malformed encode request");
      }
      slot->trace = tracer_.Begin(req.trace, "encode");
      CheckTrajectory(req.traj, "trajectory");
      group->push_back(std::move(req.traj));
      return std::nullopt;
    }

    case MsgType::kPairSimRequest: {
      slot->endpoint = Endpoint::kPairSim;
      if (draining_.load()) {
        return ErrorFrame(ErrorCode::kShuttingDown, "server is draining");
      }
      PairSimRequest req;
      if (!ParsePairSimRequest(request.payload, &req)) {
        return ErrorFrame(ErrorCode::kBadRequest, "malformed pairsim request");
      }
      slot->trace = tracer_.Begin(req.trace, "pairsim");
      CheckTrajectory(req.a, "trajectory a");
      CheckTrajectory(req.b, "trajectory b");
      // Both items record into the one request trace (two encode spans,
      // possibly on two batcher threads).
      group->push_back(std::move(req.a));
      group->push_back(std::move(req.b));
      return std::nullopt;
    }

    case MsgType::kTopKRequest: {
      slot->endpoint = Endpoint::kTopK;
      if (draining_.load()) {
        return ErrorFrame(ErrorCode::kShuttingDown, "server is draining");
      }
      TopKRequest& req = slot->topk;
      if (!ParseTopKRequest(request.payload, &req)) {
        return ErrorFrame(ErrorCode::kBadRequest, "malformed topk request");
      }
      slot->trace = tracer_.Begin(req.trace, "topk");
      CheckTrajectory(req.query, "query trajectory");
      if (req.k == 0) {
        return ErrorFrame(ErrorCode::kBadRequest, "k must be >= 1");
      }
      if (req.k > kMaxTopKResults) req.k = kMaxTopKResults;
      group->push_back(std::move(req.query));
      return std::nullopt;
    }

    case MsgType::kInsertRequest: {
      slot->endpoint = Endpoint::kInsert;
      if (draining_.load()) {
        return ErrorFrame(ErrorCode::kShuttingDown, "server is draining");
      }
      InsertRequest req;
      if (!ParseInsertRequest(request.payload, &req)) {
        return ErrorFrame(ErrorCode::kBadRequest, "malformed insert request");
      }
      slot->trace = tracer_.Begin(req.trace, "insert");
      CheckTrajectory(req.traj, "trajectory");
      // A degraded store refuses before the (expensive) encode, not after.
      if (store_ != nullptr && store_->read_only()) {
        return ErrorFrame(ErrorCode::kDegraded,
                          "store is read-only: " + store_->degraded_reason());
      }
      group->push_back(std::move(req.traj));
      return std::nullopt;
    }

    case MsgType::kError:
    case MsgType::kEncodeResponse:
    case MsgType::kPairSimResponse:
    case MsgType::kTopKResponse:
    case MsgType::kInsertResponse:
    case MsgType::kStatsResponse:
    case MsgType::kHealthResponse:
    case MsgType::kTraceDumpResponse:
      break;
  }
  return ErrorFrame(ErrorCode::kUnknownType,
                    "unknown request type " + std::to_string(request.type));
}

WireFrame QueryService::Answer(const WireFrame& request, Slot* slot,
                               MicroBatcher::BatchResult* embedded) {
  obs::RequestTrace* t = slot->trace.get();
  switch (slot->endpoint) {
    case Endpoint::kHealth: {
      HealthResponse resp;
      resp.ok = true;
      resp.corpus_size = db_->size();
      resp.dim = static_cast<uint32_t>(db_->dim());
      resp.status = draining_.load() ? "draining"
                    : store_ != nullptr && store_->read_only()
                        ? "degraded"
                        : "serving";
      return Reply(MsgType::kHealthResponse, SerializeHealthResponse(resp));
    }

    case Endpoint::kStats: {
      StatsResponse resp;
      resp.stats = Snapshot();
      return Reply(MsgType::kStatsResponse, SerializeStatsResponse(resp));
    }

    case Endpoint::kTraceDump: {
      TraceDumpRequest req;
      if (!ParseTraceDumpRequest(request.payload, &req)) {
        return ErrorFrame(ErrorCode::kBadRequest,
                          "malformed tracedump request");
      }
      // Cap the reply: at kMaxSpans spans of ~40 bytes a trace serializes
      // to ~2 KB, so 512 traces stay far below kWireMaxPayload.
      constexpr uint32_t kDefaultDump = 32;
      constexpr uint32_t kMaxDump = 512;
      const uint32_t want = req.max_traces == 0 ? kDefaultDump : req.max_traces;
      TraceDumpResponse resp;
      resp.traces = tracer_.Dump(std::min(want, kMaxDump));
      return Reply(MsgType::kTraceDumpResponse,
                   SerializeTraceDumpResponse(resp));
    }

    case Endpoint::kEncode: {
      EncodeResponse resp;
      resp.embedding = std::move(Embedded(embedded, slot->first));
      return Reply(MsgType::kEncodeResponse, SerializeEncodeResponse(resp));
    }

    case Endpoint::kPairSim: {
      const nn::Vector& a = Embedded(embedded, slot->first);
      const nn::Vector& b = Embedded(embedded, slot->first + 1);
      PairSimResponse resp;
      resp.distance = EmbeddingDistance(a, b);
      resp.similarity = EmbeddingSimilarity(a, b);
      return Reply(MsgType::kPairSimResponse, SerializePairSimResponse(resp));
    }

    case Endpoint::kTopK: {
      const TopKRequest& req = slot->topk;
      // The backend owns the scan strategy; an ANN backend's exact re-rank
      // keeps scores bit-identical to the exact one.
      const SearchResult r =
          backend_->TopK(Embedded(embedded, slot->first), req.k, req.exclude,
                         req.nprobe, t);
      TopKResponse resp;
      resp.ids.assign(r.ids.begin(), r.ids.end());
      resp.dists = r.dists;
      return Reply(MsgType::kTopKResponse, SerializeTopKResponse(resp));
    }

    case Endpoint::kInsert: {
      const nn::Vector& embedding = Embedded(embedded, slot->first);
      InsertResponse resp;
      if (store_ != nullptr) {
        try {
          // Durable ack: the WAL record is on stable storage before this
          // returns, so the reply below is a promise recovery can keep.
          resp.id = store_->Insert(embedding, t);
        } catch (const store::StoreError& e) {
          return ErrorFrame(ErrorCode::kDegraded, e.what());
        }
      } else {
        resp.id = db_->Insert(embedding);
      }
      // Mirror into the backend only after the row is in the primary (and
      // durable) corpus: a query racing this insert may briefly miss the
      // row, but can never surface an id the database cannot re-rank.
      backend_->NotifyInsert(resp.id, embedding);
      // id+1, not db_->size(): a concurrent insert may land between the two
      // calls, and the reply should be a consistent snapshot of *this* op.
      resp.corpus_size = resp.id + 1;
      return Reply(MsgType::kInsertResponse, SerializeInsertResponse(resp));
    }

    case Endpoint::kCount:
      break;
  }
  throw std::logic_error("QueryService: answering an unadmitted request");
}

}  // namespace neutraj::serve
