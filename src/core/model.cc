#include "core/model.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/file_util.h"
#include "common/framing.h"
#include "common/thread_pool.h"

namespace neutraj {

NeuTrajModel::NeuTrajModel(const NeuTrajConfig& cfg, const Grid& grid)
    : config_(cfg),
      encoder_(std::make_unique<nn::Encoder>(cfg.backbone, grid,
                                             cfg.embedding_dim, cfg.scan_width)) {
  config_.Validate();
}

void NeuTrajModel::InitializeWeights(Rng* rng) { encoder_->Initialize(rng); }

nn::Vector NeuTrajModel::Embed(const Trajectory& traj) const {
  return encoder_->Encode(traj, /*update_memory=*/false);
}

nn::Vector NeuTrajModel::Embed(const Trajectory& traj,
                               nn::CellWorkspace* ws) const {
  return encoder_->Encode(traj, /*update_memory=*/false, /*tape=*/nullptr, ws);
}

std::vector<nn::Vector> NeuTrajModel::EmbedAll(
    const std::vector<Trajectory>& corpus) const {
  std::vector<nn::Vector> out;
  out.reserve(corpus.size());
  nn::CellWorkspace ws;
  for (const Trajectory& t : corpus) out.push_back(Embed(t, &ws));
  return out;
}

std::vector<nn::Vector> NeuTrajModel::EmbedAllParallel(
    const std::vector<Trajectory>& corpus, size_t num_threads) const {
  const size_t n = corpus.size();
  std::vector<nn::Vector> out(n);
  // One workspace per chunk: workers share the encoder read-only and never
  // share scratch.
  const size_t workers = std::max<size_t>(1, std::min(num_threads, n));
  std::optional<ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  std::vector<nn::CellWorkspace> wss(workers);
  ForEachChunk(pool ? &*pool : nullptr, n, [&](size_t lo, size_t hi, size_t c) {
    for (size_t i = lo; i < hi; ++i) out[i] = Embed(corpus[i], &wss[c]);
  });
  return out;
}

double NeuTrajModel::Similarity(const Trajectory& t1, const Trajectory& t2) const {
  return EmbeddingSimilarity(Embed(t1), Embed(t2));
}

double NeuTrajModel::Distance(const Trajectory& t1, const Trajectory& t2) const {
  return EmbeddingDistance(Embed(t1), Embed(t2));
}

size_t NeuTrajModel::NumParameters() const {
  size_t total = 0;
  for (const nn::Param* p : const_cast<nn::Encoder&>(*encoder_).Params()) {
    total += p->value.size();
  }
  return total;
}

void NeuTrajModel::Save(const std::string& path) const {
  // Model files use the shared length-prefixed, CRC-checksummed section
  // framing (common/framing.h) so truncation and bit flips are detected at
  // load time instead of being half-parsed.
  SectionWriter w("model");

  std::ostringstream cfg_out;
  cfg_out.precision(17);
  // Config fields needed to reconstruct the encoder and inference behavior.
  cfg_out << MeasureName(config_.measure) << ' '
          << static_cast<int>(config_.transform) << ' ' << config_.alpha << ' '
          << config_.alpha_factor << ' ' << static_cast<int>(config_.backbone)
          << ' ' << config_.embedding_dim << ' ' << config_.scan_width << ' '
          << static_cast<int>(config_.sampling) << ' '
          << static_cast<int>(config_.loss) << ' ' << config_.sampling_num
          << ' ' << config_.batch_size << ' ' << config_.epochs << ' '
          << config_.learning_rate << ' ' << config_.clip_norm << ' '
          << config_.early_stop_tol << ' ' << config_.patience << ' '
          << config_.rng_seed << ' ' << 0;  // Inference-writes slot; see Load.
  w.Add("config", cfg_out.str());

  const Grid& g = grid();
  std::ostringstream grid_out;
  grid_out.precision(17);
  grid_out << g.region().min_x << ' ' << g.region().min_y << ' '
           << g.region().max_x << ' ' << g.region().max_y << ' '
           << g.num_cols() << ' ' << g.num_rows();
  w.Add("grid", grid_out.str());

  std::vector<const nn::Param*> params;
  for (nn::Param* p : const_cast<nn::Encoder&>(*encoder_).Params()) {
    params.push_back(p);
  }
  w.Add("params", nn::SerializeParams(params));

  // SAM memory (inference reads it).
  w.Add("memory", nn::SerializeMemory(
                      encoder_->has_memory() ? &encoder_->memory() : nullptr));

  WriteFileAtomic(path, w.Finish());
}

NeuTrajModel NeuTrajModel::Load(const std::string& path) {
  const std::string source = "NeuTrajModel::Load: " + path;
  const SectionReader r(ReadFile(path), "model", source);

  std::istringstream in(r.Get("config"));
  NeuTrajConfig cfg;
  std::string measure;
  int transform = 0, backbone = 0, sampling = 0, loss = 0;
  int update_inference = 0;
  if (!(in >> measure >> transform >> cfg.alpha >> cfg.alpha_factor >>
        backbone >> cfg.embedding_dim >> cfg.scan_width >> sampling >> loss >>
        cfg.sampling_num >> cfg.batch_size >> cfg.epochs >>
        cfg.learning_rate >> cfg.clip_norm >> cfg.early_stop_tol >>
        cfg.patience >> cfg.rng_seed >> update_inference)) {
    throw std::runtime_error(source + ": bad config section");
  }
  cfg.measure = MeasureFromName(measure);
  cfg.transform = static_cast<SimilarityTransform>(transform);
  cfg.backbone = static_cast<nn::Backbone>(backbone);
  cfg.sampling = static_cast<SamplingStrategy>(sampling);
  cfg.loss = static_cast<LossKind>(loss);
  if (update_inference != 0) {
    // Files written when inference could be set to update the SAM memory.
    throw std::runtime_error(
        source +
        ": model enables memory-updating inference, which is no longer "
        "supported; inference reads the SAM memory only");
  }

  std::istringstream grid_in(r.Get("grid"));
  BoundingBox region;
  int32_t cols = 0, rows = 0;
  if (!(grid_in >> region.min_x >> region.min_y >> region.max_x >>
        region.max_y >> cols >> rows)) {
    throw std::runtime_error(source + ": bad grid section");
  }
  NeuTrajModel model(cfg, Grid(region, cols, rows));
  nn::DeserializeParams(r.Get("params"), model.encoder_->Params());

  nn::Encoder& enc = *model.encoder_;
  nn::DeserializeMemory(r.Get("memory"),
                        enc.has_memory() ? &enc.memory() : nullptr, source);
  return model;
}

}  // namespace neutraj
