// The trained NeuTraj model: an O(L)-time trajectory embedder.

#ifndef NEUTRAJ_CORE_MODEL_H_
#define NEUTRAJ_CORE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/similarity.h"
#include "geo/grid.h"
#include "nn/encoder.h"

namespace neutraj {

/// A NeuTraj model: configuration + grid + trained encoder (+ SAM memory).
///
/// Embedding a trajectory of length L costs O(L * d^2); comparing two
/// embeddings costs O(d) — the paper's linear-time similarity primitive.
class NeuTrajModel {
 public:
  /// Constructs an *untrained* model (weights uninitialized); used by the
  /// Trainer and by Load().
  NeuTrajModel(const NeuTrajConfig& cfg, const Grid& grid);

  NeuTrajModel(NeuTrajModel&&) = default;
  NeuTrajModel& operator=(NeuTrajModel&&) = default;

  /// Random weight initialization.
  void InitializeWeights(Rng* rng);

  /// Embeds one trajectory (inference). Reads the SAM memory, never writes it.
  nn::Vector Embed(const Trajectory& traj) const;

  /// Hot-path overload for bulk encoding: uses caller-owned scratch so
  /// repeated embeds stop allocating after warm-up. One workspace serves
  /// one thread.
  nn::Vector Embed(const Trajectory& traj, nn::CellWorkspace* ws) const;

  /// Embeds a corpus; equivalent to calling Embed per trajectory.
  std::vector<nn::Vector> EmbedAll(const std::vector<Trajectory>& corpus) const;

  /// Corpus embedding over `num_threads` workers (ForEachChunk), one
  /// workspace per chunk; num_threads <= 1 runs inline. Results are
  /// identical to EmbedAll for every thread count.
  std::vector<nn::Vector> EmbedAllParallel(const std::vector<Trajectory>& corpus,
                                           size_t num_threads) const;

  /// g(t1, t2) = exp(-||E1 - E2||): the approximate similarity.
  double Similarity(const Trajectory& t1, const Trajectory& t2) const;

  /// ||E1 - E2||: the approximate distance (monotone inverse of g).
  double Distance(const Trajectory& t1, const Trajectory& t2) const;

  const NeuTrajConfig& config() const { return config_; }
  const Grid& grid() const { return encoder_->grid(); }
  nn::Encoder& encoder() { return *encoder_; }
  const nn::Encoder& encoder() const { return *encoder_; }

  /// Total number of trainable scalars.
  size_t NumParameters() const;

  /// Serializes config, grid, weights and SAM memory to `path`.
  void Save(const std::string& path) const;

  /// Restores a model saved by Save(). Throws std::runtime_error on
  /// malformed files and on files whose config enables memory-updating
  /// inference (an option older versions had).
  static NeuTrajModel Load(const std::string& path);

 private:
  NeuTrajConfig config_;
  // unique_ptr so the model stays cheaply movable. Encoder::Encode is
  // non-const because training writes the memory through it; const Embed
  // reaches it through this indirection and never asks for a write.
  std::unique_ptr<nn::Encoder> encoder_;
};

}  // namespace neutraj

#endif  // NEUTRAJ_CORE_MODEL_H_
