// Per-layer probes: each times one public function of one src/ module at a
// workload's own shapes (its trajectories, its corpus, d = 128). The traced
// run of every workload calls them to fill the per-layer metrics that its
// live phase does not exercise directly.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "core/embedding_db.h"
#include "core/model.h"
#include "core/similarity.h"

namespace perfbench {

struct EmbedProbe {
  double embed_us = 0.0;      ///< Median NeuTrajModel::Embed call.
  double ns_per_point = 0.0;  ///< Total time over total points.
  std::vector<double> item_us;  ///< Per call, for the first items probed.
};
/// Times NeuTrajModel::Embed over up to `max_items` of `trajs`.
EmbedProbe ProbeEmbed(const neutraj::NeuTrajModel& model,
                      const std::vector<neutraj::Trajectory>& trajs,
                      size_t max_items = 256);

/// Median nn::Encoder::Backward call (gradients into a detached buffer, so
/// the model is only read).
double ProbeBackwardUs(neutraj::NeuTrajModel* model,
                       const std::vector<neutraj::Trajectory>& trajs,
                       size_t max_items = 48);

/// Median nn::Adam::Step over the model's parameters. Changes the weights:
/// pass a model nothing else uses.
double ProbeAdamStepUs(neutraj::NeuTrajModel* model, size_t steps = 20);

/// GFLOP/s of MatVecAccum, MatTVecAccum and AddOuterProduct at the SAM-LSTM
/// cell's recurrent shapes for hidden width d (4d x d, d x d, d x 2d), with
/// 2 * rows * cols operations counted per call.
double ProbeMatVecGflops(size_t d);

/// Median SampleAnchorPairs call (distance-weighted, n per list).
double ProbeSampleUs(const neutraj::SimilarityMatrix& s, size_t n,
                     uint64_t seed);

/// Median EmbeddingDatabase::Insert into a fresh database.
double ProbeDbInsertUs(const std::vector<neutraj::nn::Vector>& rows,
                       size_t count = 2048);

/// Median flat EmbeddingDatabase::TopK scan, in ms.
double ProbeExactTopKMs(const neutraj::EmbeddingDatabase& db,
                        const std::vector<neutraj::nn::Vector>& queries,
                        size_t k);

/// Median cost per request of the protocol calls on the timed request
/// path: the server's DecodeWireFrame + Parse of the request and Serialize
/// + EncodeWireFrame of its reply, and the client's DecodeWireFrame of the
/// reply. `frames` are encoded TopK or Insert request frames; TopK replies
/// carry `k` results.
double ProbeProtocolUs(const std::vector<std::string>& frames, size_t k);

struct StoreProbe {
  double insert_us = 0.0;          ///< Median non-compacting Insert.
  double compact_ms = 0.0;         ///< The compacting Insert minus median.
  double fsyncs_per_insert = 0.0;  ///< Exact, from the FileFactory seam.
  double bytes_written_per_insert = 0.0;
  double load_s = 0.0;             ///< EmbeddingDatabase::Load of the
                                   ///< resulting snapshot.
};
/// A DurableStore over `corpus` in `dir` (created and removed here), fed
/// exactly one compaction interval of inserts (compact_every = 1024), so
/// the counts include one compaction.
StoreProbe ProbeStore(const std::vector<neutraj::nn::Vector>& corpus,
                      const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
