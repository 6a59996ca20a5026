#include "core/config.h"

#include <sstream>
#include <stdexcept>

namespace neutraj {

NeuTrajConfig NeuTrajConfig::NeuTraj() { return NeuTrajConfig{}; }

NeuTrajConfig NeuTrajConfig::NoSam() {
  NeuTrajConfig c;
  c.backbone = nn::Backbone::kLstm;
  return c;
}

NeuTrajConfig NeuTrajConfig::NoWs() {
  NeuTrajConfig c;
  c.sampling = SamplingStrategy::kRandom;
  return c;
}

NeuTrajConfig NeuTrajConfig::Siamese() {
  NeuTrajConfig c;
  c.backbone = nn::Backbone::kLstm;
  c.sampling = SamplingStrategy::kRandom;
  c.loss = LossKind::kMse;
  return c;
}

std::string NeuTrajConfig::VariantName() const {
  const bool sam = backbone == nn::Backbone::kSamLstm;
  const bool ws = sampling == SamplingStrategy::kDistanceWeighted;
  const bool rank = loss == LossKind::kWeightedRanking;
  if (sam && ws && rank) return "NeuTraj";
  if (!sam && ws && rank) return "NT-No-SAM";
  if (sam && !ws && rank) return "NT-No-WS";
  if (!sam && !ws && !rank) return "Siamese";
  return "Custom";
}

std::string NeuTrajConfig::Fingerprint() const {
  std::ostringstream out;
  out.precision(17);
  out << "measure=" << MeasureName(measure)
      << ";transform=" << static_cast<int>(transform) << ";alpha=" << alpha
      << ";alpha_factor=" << alpha_factor
      << ";backbone=" << static_cast<int>(backbone) << ";d=" << embedding_dim
      << ";w=" << scan_width << ";sampling=" << static_cast<int>(sampling)
      << ";loss=" << static_cast<int>(loss) << ";n=" << sampling_num
      << ";batch=" << batch_size << ";epochs=" << epochs
      << ";lr=" << learning_rate << ";clip=" << clip_norm
      << ";estop=" << early_stop_tol << ";patience=" << patience
      << ";seed=" << rng_seed
      // Inference never writes the memory; the constant keeps fingerprints
      // of models and checkpoints from before that was fixed matching.
      << ";memo_inf=0";
  // Watchdog knobs can change the training trajectory (rollbacks decay the
  // learning rate), so they key the cache; checkpoint_dir/checkpoint_every
  // are pure side effects and deliberately excluded. `threads` is also
  // excluded: the parallel epoch is bit-for-bit identical for every thread
  // count, so checkpoints must resume across thread-count changes.
  out << ";wd=" << watchdog << ";wd_thresh=" << divergence_loss_threshold
      << ";wd_decay=" << divergence_lr_decay
      << ";wd_max=" << max_divergence_rollbacks;
  return out.str();
}

void NeuTrajConfig::Validate() const {
  if (embedding_dim == 0) throw std::invalid_argument("config: embedding_dim == 0");
  if (scan_width < 0) throw std::invalid_argument("config: scan_width < 0");
  if (sampling_num == 0) throw std::invalid_argument("config: sampling_num == 0");
  if (batch_size == 0) throw std::invalid_argument("config: batch_size == 0");
  if (learning_rate <= 0) throw std::invalid_argument("config: learning_rate <= 0");
  if (alpha <= 0 && alpha_factor <= 0) {
    throw std::invalid_argument("config: need alpha > 0 or alpha_factor > 0");
  }
  if (threads == 0) throw std::invalid_argument("config: threads == 0");
  if (checkpoint_every == 0) {
    throw std::invalid_argument("config: checkpoint_every == 0");
  }
  if (divergence_lr_decay <= 0.0 || divergence_lr_decay > 1.0) {
    throw std::invalid_argument("config: divergence_lr_decay outside (0, 1]");
  }
}

}  // namespace neutraj
