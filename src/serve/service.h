// The query service: request dispatch over a model + live corpus.
//
// QueryService is the socket-independent heart of src/serve/: it owns the
// trained model, the live EmbeddingDatabase, the MicroBatcher, and the
// ServerStats, and maps a burst of request frames to its reply frames. The
// Server (server.h) feeds it the frames buffered on a socket; tests feed
// it frames directly — the protocol semantics are fully exercisable
// without ever opening a socket.
// HandleBurst is the only request path (Handle is a one-frame burst), so
// admission — draining, parse, validation — runs in one place for every
// endpoint, and a pipelined burst of any endpoint mix is one batcher group.
//
// Locking discipline: encoding runs in the batcher with no corpus lock
// held; EmbeddingDatabase takes its reader lock inside TopK and its writer
// lock inside Insert. HandleBurst itself holds no lock across an encode, so
// inserts never stall queries for the duration of an embedding.

#ifndef NEUTRAJ_SERVE_SERVICE_H_
#define NEUTRAJ_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/framing.h"
#include "core/embedding_db.h"
#include "core/model.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "retrieval/backend.h"
#include "serve/micro_batcher.h"
#include "serve/protocol.h"
#include "serve/stats.h"
#include "store/durable_store.h"

namespace neutraj::serve {

/// Dispatches decoded request frames against a model + live corpus.
class QueryService {
 public:
  /// Both references must outlive the service. `db` may start empty and be
  /// populated purely through Insert requests.
  ///
  /// `store` (optional, must outlive the service, already Open()ed, and
  /// wrapping the same `db`) makes Insert durable: the WAL record is
  /// fsync'd before the reply is sent, and a store that has degraded to
  /// read-only turns Insert into a typed kDegraded error while every query
  /// endpoint keeps serving.
  QueryService(const NeuTrajModel& model, EmbeddingDatabase* db,
               const MicroBatcher::Options& batch_opts,
               store::DurableStore* store = nullptr);

  /// Answers a pipelined burst of request frames, one reply per request in
  /// request order. Never throws: parse failures, unknown types and handler
  /// exceptions all become kError replies in their own slot.
  /// Thread-safe — called concurrently from connection handlers.
  ///
  /// Two passes. The first admits each request in order (draining, parse,
  /// validation, degraded store) and collects every trajectory the burst
  /// must embed — Encode, TopK and Insert one each, PairSim two — into ONE
  /// micro-batcher group, so a burst costs one future and one straggler
  /// window whatever its endpoints. The second builds the replies in
  /// order, so a TopK placed after an Insert in the same burst sees it.
  /// Each request's latency is measured from the start of the burst to the
  /// moment its reply is built.
  ///
  /// `traces_out` (if non-null) receives one entry per request, nullptr
  /// when unsampled, so the transport can record each "reply" span around
  /// the socket write and then call tracer().Finish(). With a null
  /// `traces_out` (tests, socketless callers) the service finishes each
  /// trace itself as its reply is built — no reply span, everything else
  /// identical.
  std::vector<WireFrame> HandleBurst(
      std::vector<WireFrame> requests,
      std::vector<std::shared_ptr<obs::RequestTrace>>* traces_out = nullptr);

  /// A one-frame HandleBurst; `trace_out` as HandleBurst's `traces_out`.
  WireFrame Handle(const WireFrame& request,
                   std::shared_ptr<obs::RequestTrace>* trace_out = nullptr);

  /// Convenience for frame-level failures discovered by the transport:
  /// builds the kError reply matching a FrameStatus.
  static WireFrame FrameErrorReply(FrameStatus status);

  /// While draining, every request except Health and Stats is refused with
  /// kShuttingDown so in-flight connections wind down crisply.
  void SetDraining(bool draining) { draining_.store(draining); }
  bool draining() const { return draining_.load(); }

  /// Routes TopK through `backend` (must outlive the service; typically a
  /// retrieval::IvfBackend already Build()t over this service's database).
  /// Inserts keep landing in the database/store first and are then mirrored
  /// to the backend via NotifyInsert, so the backend stays a view of the
  /// durable corpus. The backend's metrics re-register into this service's
  /// registry. nullptr restores the service's own exact backend (the
  /// default state). Not thread-safe against in-flight requests — call
  /// before serving.
  void set_retrieval_backend(retrieval::RetrievalBackend* backend) {
    backend_ = backend != nullptr ? backend : &exact_backend_;
    backend_->AttachMetrics(&registry_);
  }

  /// Applies tracing knobs (sampling rate, ring size, slow-query log) to
  /// this service's tracer. Not thread-safe against in-flight requests —
  /// call before serving.
  void ConfigureTracing(const obs::ReqTraceOptions& opts) {
    tracer_.Configure(opts);
  }
  obs::RequestTracer& tracer() { return tracer_; }

  /// Endpoint counters plus corpus/batcher gauges and the flattened
  /// registry metrics, ready to serialize.
  StatsSnapshot Snapshot() const;

  const NeuTrajModel& model() const { return model_; }
  EmbeddingDatabase& db() { return *db_; }
  MicroBatcher& batcher() { return batcher_; }
  obs::MetricsRegistry& registry() { return registry_; }
  store::DurableStore* durable_store() { return store_; }

 private:
  struct Slot;
  /// Pass 1 for one request: returns its reply when it is answered without
  /// an embedding (refused, malformed) and otherwise appends the
  /// trajectories it needs to `group`. Throws like a handler.
  std::optional<WireFrame> Admit(const WireFrame& request, Slot* slot,
                                 std::vector<Trajectory>* group);
  /// Pass 2 for one admitted request: builds its reply from the group's
  /// result. Throws like a handler.
  WireFrame Answer(const WireFrame& request, Slot* slot,
                   MicroBatcher::BatchResult* embedded);

  const NeuTrajModel& model_;
  EmbeddingDatabase* db_;
  store::DurableStore* store_;  ///< Nullable: no durability configured.
  /// The full scan over db_; serves TopK unless another backend is set.
  retrieval::ExactBackend exact_backend_{db_};
  /// Never null: answers every TopK and sees every insert.
  retrieval::RetrievalBackend* backend_ = &exact_backend_;
  /// Per-service registry (declared before the members that register into
  /// it): two services in one process — routine in tests — never share
  /// counters, and a stats snapshot covers exactly this server's traffic.
  obs::MetricsRegistry registry_;
  /// Request tracing (sampling gate, trace ring, slow-query log). Declared
  /// after registry_ — its rollup metrics register there.
  obs::RequestTracer tracer_{&registry_};
  MicroBatcher batcher_;
  ServerStats stats_;
  std::atomic<bool> draining_{false};
};

}  // namespace neutraj::serve

#endif  // NEUTRAJ_SERVE_SERVICE_H_
