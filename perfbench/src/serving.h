// The serving harness shared by the serving workloads: bring a server up
// (the timed set-up), drive it open-loop with TopK and Insert traffic, and
// check every reply.

#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <memory>
#include <string>
#include <vector>

#include "core/embedding_db.h"
#include "core/model.h"
#include "loadgen.h"
#include "retrieval/backend.h"
#include "seams.h"
#include "serve/micro_batcher.h"
#include "serve/server.h"
#include "serve/service.h"
#include "store/durable_store.h"

namespace perfbench {

/// Server threads that compute: the micro-batcher's encode pool. Together
/// with the generator's one thread this stays within the 4 vCPUs the
/// benchmark targets.
inline constexpr size_t kServerPoolThreads = 2;

struct StackOptions {
  /// Exactly one source: a snapshot file loaded with EmbeddingDatabase::Load,
  /// or a DurableStore data directory, copied to `work_dir` and opened.
  std::string snapshot_path;
  std::string store_dir;
  std::string work_dir;
  neutraj::retrieval::IvfIndex::Options ivf;
  /// Traced stacks route retrieval through a TimedBackend around the
  /// IvfBackend and store I/O through CountingFileFactory; untraced stacks
  /// use the plain IvfBackend and the POSIX factory.
  bool traced = false;
};

/// One running server over one corpus. Members are declared in dependency
/// order, so destruction stops the server before anything it uses.
class ServingStack {
 public:
  /// Brings the stack up and waits for the first successful Health call.
  /// `cycle` names the scratch copy of a store directory.
  ServingStack(const neutraj::NeuTrajModel& model, const StackOptions& opts,
               size_t cycle);
  ~ServingStack();

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  double setup_s() const { return setup_s_; }  ///< Start to first Health.
  /// CPU time the process used over the same span.
  double setup_cpu_s() const { return setup_cpu_s_; }
  double load_s() const { return load_s_; }    ///< Load or Open.
  double build_s() const { return build_s_; }  ///< IvfBackend::Build.

  neutraj::EmbeddingDatabase& db() { return *db_; }
  neutraj::serve::QueryService& service() { return *service_; }
  uint16_t port() const { return server_->port(); }
  TimedBackend* timed() { return timed_.get(); }
  CountingFileFactory* files() { return files_.get(); }
  neutraj::store::DurableStore* store() { return store_.get(); }

 private:
  std::string store_copy_;  ///< Scratch copy of StackOptions::store_dir.
  double setup_s_ = 0.0;
  double setup_cpu_s_ = 0.0;
  double load_s_ = 0.0;
  double build_s_ = 0.0;
  std::unique_ptr<CountingFileFactory> files_;
  std::unique_ptr<neutraj::EmbeddingDatabase> db_;
  std::unique_ptr<neutraj::store::DurableStore> store_;
  std::unique_ptr<neutraj::retrieval::IvfBackend> ivf_;
  std::unique_ptr<TimedBackend> timed_;
  std::unique_ptr<neutraj::serve::QueryService> service_;
  std::unique_ptr<neutraj::serve::Server> server_;
};

enum class OpKind { kTopK, kInsert };

/// An open-loop traffic pattern: TopK requests at `topk_rate` cycling over
/// `queries`, Insert requests at `insert_rate` taking `inserts` in order
/// from `*insert_cursor`, each kind evenly spaced (rate * seconds requests
/// of it; even spacing keeps the single insert connection from queueing on
/// arrival clumps, which made its latency track machine noise). Rates of 0
/// mean none of that kind. A negative `seconds` sends everything at once: a
/// saturating burst of `burst_topk` TopK and `burst_inserts` Insert
/// requests.
struct Traffic {
  const std::vector<neutraj::Trajectory>* queries = nullptr;
  const std::vector<neutraj::Trajectory>* inserts = nullptr;
  size_t* insert_cursor = nullptr;
  size_t* query_cursor = nullptr;
  double topk_rate = 0.0;
  double insert_rate = 0.0;
  double seconds = 0.0;
  size_t burst_topk = 0;
  size_t burst_inserts = 0;
  uint32_t k = 10;
};

/// What one phase sent and got back, checked.
struct Phase {
  std::vector<Outcome> outcomes;
  std::vector<OpKind> kinds;
  std::vector<size_t> items;  ///< Index into queries or inserts.
  std::vector<std::string> frames;
  std::vector<bool> ok;       ///< Reply arrived and passed the checks.
  /// Insert acks, in ack order: (insert index, assigned id).
  std::vector<std::pair<size_t, uint64_t>> acks;
  /// TopK replies by outcome index (ids; empty when failed).
  std::vector<std::vector<uint64_t>> topk_ids;
  std::vector<std::vector<double>> topk_dists;

  /// Latencies of the requests of `kind` that succeeded, in request order.
  std::vector<double> LatenciesMs(OpKind kind) const;
  size_t failed() const;
};

/// Connections per lane: TopK on lane 0, Insert on lane 1.
inline constexpr size_t kTopKConnections = 3;
inline constexpr size_t kInsertConnections = 1;

/// Runs `traffic` against the stack. Insert acks must carry consecutive
/// ids starting at `*next_id` (advanced here), since inserts share one
/// connection and are applied in arrival order; a reply that breaks this,
/// fails to parse, or returns a malformed top-k counts as failed.
Phase RunPhase(OpenLoopClient* client, const Traffic& traffic,
               uint64_t* next_id);

/// Replies of `kind` that passed the checks per second, over the time from
/// the phase start to the last of them (a saturating burst's rate).
double CompletedRate(const Phase& ph, OpKind kind);

/// Recall@k of the server's TopK against an exact EmbeddingDatabase::TopK
/// over the same corpus, for `queries` sent one at a time.
struct RecallPass {
  double recall = 0.0;
  std::vector<std::vector<uint64_t>> served;
  size_t failed = 0;
};
RecallPass MeasureRecall(const neutraj::NeuTrajModel& model,
                         ServingStack* stack,
                         const std::vector<neutraj::Trajectory>& queries,
                         uint32_t k);

/// Minimum rung length and samples per rung of the capacity ladder: p99
/// needs at least 1000 samples to have ten beyond it, and two seconds let a
/// rate just over capacity build a queue the backlog test sees.
inline constexpr double kRungSeconds = 2.0;
inline constexpr double kRungSamples = 1000.0;

/// Offered-rate ladder over the TopK traffic of `base` (SearchCapacity with
/// growth 1.25 and three bisections, a final step of 2.8%). A rung passes
/// when nothing failed, p99 <= `p99_limit_ms` and the backlog did not grow.
CapacityResult SearchServingCapacity(OpenLoopClient* client,
                                     const Traffic& base, double start_rate,
                                     double max_rate, double p99_limit_ms);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
