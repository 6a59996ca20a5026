// NeuTraj configuration and the model variants evaluated in the paper.

#ifndef NEUTRAJ_CORE_CONFIG_H_
#define NEUTRAJ_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "distance/measures.h"
#include "nn/encoder.h"

namespace neutraj {

/// How the raw distance matrix D is turned into the similarity guidance S
/// (paper Sec. V-B).
enum class SimilarityTransform {
  /// S_ij = exp(-alpha * D_ij). Matches the fit target g = exp(-L2) and the
  /// reference implementation; the default.
  kExp,
  /// S_ij = exp(-alpha * D_ij) / sum_n exp(-alpha * D_in): the
  /// row-normalized form written in the paper. Asymmetric.
  kRowSoftmax,
};

/// How training pairs are drawn for an anchor (paper Sec. V-B).
enum class SamplingStrategy {
  kDistanceWeighted,  ///< Importance sampling by S (NeuTraj).
  kRandom,            ///< Uniform sampling (NT-No-WS, Siamese).
};

/// Loss applied to sampled pairs.
enum class LossKind {
  /// Rank-weighted regression on similar pairs + rank-weighted margin on
  /// dissimilar pairs (Eqs. 8-9; NeuTraj, NT-No-WS, NT-No-SAM).
  kWeightedRanking,
  /// Plain mean-squared error on all sampled pairs (Siamese baseline).
  kMse,
};

/// Full training/model configuration.
///
/// Defaults follow the paper (d = 128, w = 2, n = 10, batch 20) scaled for
/// CPU-only training; see the presets below for the evaluated variants.
struct NeuTrajConfig {
  Measure measure = Measure::kFrechet;

  // -- Guidance -------------------------------------------------------------
  SimilarityTransform transform = SimilarityTransform::kExp;
  /// alpha of the similarity transform; <= 0 calibrates it from the seed
  /// pool so that similarity 0.5 sits at the mean sampling_num-th
  /// nearest-neighbor distance (see SimilarityMatrix). `alpha_factor`
  /// scales the calibrated value (1.0 = the calibration point).
  double alpha = 0.0;
  double alpha_factor = 1.0;

  // -- Architecture ----------------------------------------------------------
  nn::Backbone backbone = nn::Backbone::kSamLstm;
  size_t embedding_dim = 64;  ///< d: hidden size = embedding size.
  int32_t scan_width = 2;     ///< w: SAM window half-width.

  // -- Sampling & loss --------------------------------------------------------
  SamplingStrategy sampling = SamplingStrategy::kDistanceWeighted;
  LossKind loss = LossKind::kWeightedRanking;
  size_t sampling_num = 10;  ///< n: similar and dissimilar samples per anchor.

  // -- Optimization -----------------------------------------------------------
  size_t batch_size = 20;  ///< Anchors per Adam step.
  size_t epochs = 20;
  double learning_rate = 1e-3;
  double clip_norm = 5.0;
  /// Early stopping: stop after `patience` epochs without relative loss
  /// improvement better than `early_stop_tol` (0 disables).
  double early_stop_tol = 0.0;
  size_t patience = 5;

  uint64_t rng_seed = 42;

  /// Worker threads for training batches and bulk corpus encoding (>= 1).
  /// Training is bit-for-bit identical for every value: anchors in a batch
  /// read a shared memory snapshot, record their SAM writes into per-anchor
  /// logs and accumulate gradients into per-anchor buffers; the trainer
  /// commits both in a fixed anchor order. Because the result is
  /// thread-count-invariant, `threads` is deliberately excluded from
  /// Fingerprint() — a checkpoint taken at one thread count resumes at any
  /// other.
  size_t threads = 1;

  // -- Fault tolerance --------------------------------------------------------
  /// Directory for crash-safe training checkpoints; empty disables them.
  /// When set, the Trainer writes `checkpoint_dir`/neutraj.ckpt atomically
  /// after every `checkpoint_every`-th completed epoch, and ResumeFrom()
  /// continues an interrupted run bit-for-bit.
  std::string checkpoint_dir;
  /// Epochs between checkpoint writes (>= 1).
  size_t checkpoint_every = 1;
  /// Divergence watchdog: scan per-anchor losses and post-step parameters
  /// for NaN/Inf; on trip, roll back to the last good epoch state, decay the
  /// learning rate and retry instead of training on garbage.
  bool watchdog = true;
  /// Anchor-loss explosion threshold; a finite anchor loss above it also
  /// trips the watchdog. <= 0 disables the explosion check (NaN/Inf is
  /// always checked while the watchdog is on).
  double divergence_loss_threshold = 0.0;
  /// Learning-rate multiplier applied on each watchdog rollback, in (0, 1].
  double divergence_lr_decay = 0.5;
  /// Rollbacks before the watchdog gives up and aborts the run.
  size_t max_divergence_rollbacks = 3;

  // -- Presets for the paper's methods ---------------------------------------
  /// Full NeuTraj: SAM backbone + weighted sampling + ranking loss.
  static NeuTrajConfig NeuTraj();
  /// NT-No-SAM ablation: standard LSTM backbone, everything else NeuTraj.
  static NeuTrajConfig NoSam();
  /// NT-No-WS ablation: random sampling, everything else NeuTraj.
  static NeuTrajConfig NoWs();
  /// Siamese baseline: LSTM backbone, random sampling, plain MSE loss.
  static NeuTrajConfig Siamese();

  /// Short name of the configured variant ("NeuTraj", "NT-No-SAM", ...).
  std::string VariantName() const;

  /// Stable textual fingerprint of every field that affects training; used
  /// to key the experiment model cache.
  std::string Fingerprint() const;

  /// Validates ranges; throws std::invalid_argument on nonsense configs.
  void Validate() const;
};

}  // namespace neutraj

#endif  // NEUTRAJ_CORE_CONFIG_H_
