// Fault-tolerance tests: crash-safe checkpoint/resume (bit-for-bit),
// checkpoint/model corruption detection, and the divergence watchdog.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/framing.h"
#include "core/trainer.h"
#include "distance/pairwise.h"
#include "test_util.h"

namespace neutraj {
namespace {

/// Small clustered corpus (near-duplicates exist, so training has signal).
std::vector<Trajectory> ClusteredCorpus(size_t n, Rng* rng) {
  std::vector<Trajectory> templates;
  for (int k = 0; k < 4; ++k) {
    templates.push_back(testing::RandomTrajectory(10, 1000.0, rng));
  }
  std::vector<Trajectory> out;
  for (size_t i = 0; i < n; ++i) {
    const Trajectory& base = templates[i % templates.size()];
    Trajectory t;
    for (size_t j = 0; j < base.size(); ++j) {
      t.Append(Point(base[j].x + rng->Gaussian(0, 15.0),
                     base[j].y + rng->Gaussian(0, 15.0)));
    }
    out.push_back(std::move(t));
  }
  return out;
}

Grid CorpusGrid(const std::vector<Trajectory>& corpus) {
  BoundingBox region = BoundingBox::Empty();
  for (const Trajectory& t : corpus) region.Extend(t.Bounds());
  return Grid(region.Inflated(10.0), 60.0);
}

NeuTrajConfig TinyConfig() {
  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = 12;
  cfg.scan_width = 1;
  cfg.sampling_num = 4;
  cfg.batch_size = 8;
  cfg.epochs = 6;
  cfg.learning_rate = 5e-3;
  return cfg;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("neutraj_ckpt_") + info->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

/// The acceptance test: training interrupted after epoch 3 and resumed from
/// its checkpoint in a brand-new trainer must reproduce the uninterrupted
/// run bit-for-bit — identical loss trajectory and identical embeddings.
TEST_F(CheckpointTest, ResumeMatchesUninterruptedRunBitForBit) {
  Rng rng(81);
  const auto corpus = ClusteredCorpus(16, &rng);
  const DistanceMatrix d = ComputePairwiseDistances(corpus, Measure::kFrechet);
  const Grid grid = CorpusGrid(corpus);
  NeuTrajConfig cfg = TinyConfig();
  cfg.checkpoint_dir = dir_;

  // Reference: uninterrupted run.
  Trainer uninterrupted(cfg, grid, corpus, d);
  const TrainResult full = uninterrupted.Train();
  ASSERT_EQ(full.epochs.size(), cfg.epochs);

  // "Crash" after epoch 3: the callback aborts training; the state on disk
  // is the checkpoint written at the epoch-3 boundary.
  Trainer interrupted(cfg, grid, corpus, d);
  size_t calls = 0;
  interrupted.Train(
      [&](const EpochStats&, NeuTrajModel&) { return ++calls < 3; });
  ASSERT_EQ(calls, 3u);

  // Resume in a fresh trainer, as a restarted process would.
  Trainer resumed(cfg, grid, corpus, d);
  resumed.ResumeFrom(dir_ + "/neutraj.ckpt");
  EXPECT_EQ(resumed.next_epoch(), 3u);
  const TrainResult rest = resumed.Train();

  // The combined loss trajectory matches the uninterrupted run exactly.
  ASSERT_EQ(rest.epochs.size(), full.epochs.size());
  for (size_t i = 0; i < full.epochs.size(); ++i) {
    EXPECT_EQ(rest.epochs[i].epoch, full.epochs[i].epoch);
    EXPECT_DOUBLE_EQ(rest.epochs[i].mean_loss, full.epochs[i].mean_loss)
        << "epoch " << i;
  }

  // And the final models embed identically, bit for bit.
  const NeuTrajModel a = uninterrupted.TakeModel();
  const NeuTrajModel b = resumed.TakeModel();
  for (const Trajectory& t : corpus) {
    const nn::Vector ea = a.Embed(t);
    const nn::Vector eb = b.Embed(t);
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t k = 0; k < ea.size(); ++k) {
      EXPECT_DOUBLE_EQ(ea[k], eb[k]);
    }
  }
}

TEST_F(CheckpointTest, CheckpointEveryControlsCadence) {
  Rng rng(82);
  const auto corpus = ClusteredCorpus(12, &rng);
  const DistanceMatrix d = ComputePairwiseDistances(corpus, Measure::kFrechet);
  const Grid grid = CorpusGrid(corpus);
  NeuTrajConfig cfg = TinyConfig();
  cfg.epochs = 5;
  cfg.checkpoint_dir = dir_;
  cfg.checkpoint_every = 2;

  Trainer t(cfg, grid, corpus, d);
  t.Train();

  // 5 epochs with a cadence of 2: the last checkpoint is the epoch-4
  // boundary, so resuming starts at epoch 4.
  Trainer r(cfg, grid, corpus, d);
  r.ResumeFrom(dir_ + "/neutraj.ckpt");
  EXPECT_EQ(r.next_epoch(), 4u);
}

TEST_F(CheckpointTest, BitFlippedCheckpointIsRejectedWithChecksumError) {
  Rng rng(83);
  const auto corpus = ClusteredCorpus(10, &rng);
  const DistanceMatrix d = ComputePairwiseDistances(corpus, Measure::kFrechet);
  const Grid grid = CorpusGrid(corpus);
  NeuTrajConfig cfg = TinyConfig();
  cfg.epochs = 2;
  cfg.checkpoint_dir = dir_;
  Trainer t(cfg, grid, corpus, d);
  t.Train();

  const std::string path = dir_ + "/neutraj.ckpt";
  std::string contents = ReadFile(path);
  // Flip one byte well inside the params section payload.
  const size_t header = contents.find("SECTION params");
  ASSERT_NE(header, std::string::npos);
  const size_t payload = contents.find('\n', header) + 1;
  ASSERT_LT(payload + 100, contents.size());
  contents[payload + 100] ^= 0x01;
  WriteFileAtomic(path, contents);

  Trainer fresh(cfg, grid, corpus, d);
  try {
    fresh.ResumeFrom(path);
    FAIL() << "corrupt checkpoint was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointTest, TruncatedCheckpointIsRejected) {
  Rng rng(84);
  const auto corpus = ClusteredCorpus(10, &rng);
  const DistanceMatrix d = ComputePairwiseDistances(corpus, Measure::kFrechet);
  const Grid grid = CorpusGrid(corpus);
  NeuTrajConfig cfg = TinyConfig();
  cfg.epochs = 2;
  cfg.checkpoint_dir = dir_;
  Trainer t(cfg, grid, corpus, d);
  t.Train();

  const std::string path = dir_ + "/neutraj.ckpt";
  const std::string contents = ReadFile(path);
  WriteFileAtomic(path, contents.substr(0, contents.size() / 2));

  Trainer fresh(cfg, grid, corpus, d);
  try {
    fresh.ResumeFrom(path);
    FAIL() << "truncated checkpoint was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncat"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointTest, ResumeRejectsCheckpointFromDifferentRun) {
  Rng rng(85);
  const auto corpus = ClusteredCorpus(10, &rng);
  const DistanceMatrix d = ComputePairwiseDistances(corpus, Measure::kFrechet);
  const Grid grid = CorpusGrid(corpus);
  NeuTrajConfig cfg = TinyConfig();
  cfg.epochs = 2;
  cfg.checkpoint_dir = dir_;
  Trainer t(cfg, grid, corpus, d);
  t.Train();

  NeuTrajConfig other = cfg;
  other.embedding_dim = 16;
  Trainer fresh(other, grid, corpus, d);
  try {
    fresh.ResumeFrom(dir_ + "/neutraj.ckpt");
    FAIL() << "checkpoint from a different run was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different run"), std::string::npos)
        << e.what();
  }
}

/// Injects a NaN into a weight via the epoch callback; the watchdog must
/// trip on the next epoch, roll back to the clean boundary snapshot and
/// finish the run with finite parameters.
TEST_F(CheckpointTest, WatchdogRollsBackInjectedNaN) {
  Rng rng(86);
  const auto corpus = ClusteredCorpus(12, &rng);
  const DistanceMatrix d = ComputePairwiseDistances(corpus, Measure::kFrechet);
  const Grid grid = CorpusGrid(corpus);
  NeuTrajConfig cfg = TinyConfig();
  cfg.epochs = 5;

  Trainer t(cfg, grid, corpus, d);
  bool injected = false;
  const TrainResult r = t.Train([&](const EpochStats& s, NeuTrajModel& m) {
    if (s.epoch == 1 && !injected) {
      injected = true;
      m.encoder().Params()[0]->value.values()[0] =
          std::numeric_limits<double>::quiet_NaN();
    }
    return true;
  });

  EXPECT_TRUE(injected);
  EXPECT_FALSE(r.diverged);
  ASSERT_FALSE(r.divergence_events.empty());
  EXPECT_EQ(r.divergence_events[0].epoch, 2u);
  EXPECT_LT(r.divergence_events[0].new_learning_rate, cfg.learning_rate);
  // The run recovers and completes every epoch with finite losses.
  ASSERT_EQ(r.epochs.size(), cfg.epochs);
  for (const EpochStats& e : r.epochs) {
    EXPECT_TRUE(std::isfinite(e.mean_loss)) << "epoch " << e.epoch;
  }
  const NeuTrajModel m = t.TakeModel();
  const nn::Vector e = m.Embed(corpus[0]);
  for (size_t k = 0; k < e.size(); ++k) EXPECT_TRUE(std::isfinite(e[k]));
}

TEST_F(CheckpointTest, WatchdogGivesUpAfterMaxRollbacks) {
  Rng rng(87);
  const auto corpus = ClusteredCorpus(10, &rng);
  const DistanceMatrix d = ComputePairwiseDistances(corpus, Measure::kFrechet);
  const Grid grid = CorpusGrid(corpus);
  NeuTrajConfig cfg = TinyConfig();
  cfg.epochs = 4;
  // An absurdly low explosion threshold makes every epoch trip.
  cfg.divergence_loss_threshold = 1e-12;
  cfg.max_divergence_rollbacks = 2;

  Trainer t(cfg, grid, corpus, d);
  const TrainResult r = t.Train();
  EXPECT_TRUE(r.diverged);
  // max_divergence_rollbacks rollbacks plus the final give-up trip.
  EXPECT_EQ(r.divergence_events.size(), cfg.max_divergence_rollbacks + 1);
  EXPECT_TRUE(r.epochs.empty());
  // Each rollback compounds the decay from the snapshot's learning rate.
  EXPECT_DOUBLE_EQ(r.divergence_events[0].new_learning_rate,
                   cfg.learning_rate * cfg.divergence_lr_decay);
  EXPECT_DOUBLE_EQ(
      r.divergence_events[1].new_learning_rate,
      cfg.learning_rate * cfg.divergence_lr_decay * cfg.divergence_lr_decay);
}

TEST_F(CheckpointTest, TrainerRejectsNonFiniteOrNegativeSeedDistances) {
  Rng rng(88);
  const auto corpus = ClusteredCorpus(6, &rng);
  const Grid grid = CorpusGrid(corpus);
  const NeuTrajConfig cfg = TinyConfig();

  DistanceMatrix with_nan = ComputePairwiseDistances(corpus, Measure::kFrechet);
  with_nan.Set(1, 2, std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(Trainer(cfg, grid, corpus, with_nan), std::invalid_argument);

  DistanceMatrix negative = ComputePairwiseDistances(corpus, Measure::kFrechet);
  negative.Set(0, 3, -1.0);
  try {
    Trainer t(cfg, grid, corpus, negative);
    FAIL() << "negative seed distance was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("(0, 3)"), std::string::npos)
        << e.what();
  }
}

/// Model files share the checkpoint's framing, so the same corruption
/// detection applies to Save()/Load().
TEST_F(CheckpointTest, ModelFileCorruptionIsDetected) {
  Rng rng(89);
  const auto corpus = ClusteredCorpus(10, &rng);
  const DistanceMatrix d = ComputePairwiseDistances(corpus, Measure::kFrechet);
  NeuTrajConfig cfg = TinyConfig();
  cfg.epochs = 1;
  Trainer t(cfg, CorpusGrid(corpus), corpus, d);
  t.Train();
  const NeuTrajModel m = t.TakeModel();

  const std::string path = dir_ + "/model.bin";
  m.Save(path);
  NeuTrajModel reloaded = NeuTrajModel::Load(path);  // Sanity: loads clean.
  EXPECT_EQ(reloaded.config().embedding_dim, cfg.embedding_dim);

  // Bit flip inside the params payload -> checksum error.
  std::string contents = ReadFile(path);
  const size_t header = contents.find("SECTION params");
  ASSERT_NE(header, std::string::npos);
  const size_t payload = contents.find('\n', header) + 1;
  ASSERT_LT(payload + 50, contents.size());
  std::string flipped = contents;
  flipped[payload + 50] ^= 0x01;
  WriteFileAtomic(path, flipped);
  try {
    NeuTrajModel::Load(path);
    FAIL() << "corrupt model file was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }

  // Truncation -> clear truncation error.
  WriteFileAtomic(path, contents.substr(0, contents.size() / 3));
  try {
    NeuTrajModel::Load(path);
    FAIL() << "truncated model file was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncat"), std::string::npos)
        << e.what();
  }

  // A checkpoint is not a model (wrong artifact kind).
  cfg.checkpoint_dir = dir_;
  Trainer t2(cfg, CorpusGrid(corpus), corpus, d);
  t2.Train();
  EXPECT_THROW(NeuTrajModel::Load(dir_ + "/neutraj.ckpt"),
               std::runtime_error);
}

/// The config slot that once held `update_memory_at_inference` stays in the
/// file format: Save writes 0 there and Load refuses a model that had it set,
/// rather than silently serving it read-only.
TEST_F(CheckpointTest, ModelWithMemoryUpdatingInferenceIsRejected) {
  Rng rng(90);
  const auto corpus = ClusteredCorpus(4, &rng);
  NeuTrajModel m(TinyConfig(), CorpusGrid(corpus));
  m.InitializeWeights(&rng);
  const std::string path = dir_ + "/model.bin";
  m.Save(path);

  const SectionReader saved(ReadFile(path), "model", path);
  std::string config = saved.Get("config");
  ASSERT_EQ(config.substr(config.size() - 2), " 0");
  config.back() = '1';
  SectionWriter w("model");
  w.Add("config", config);
  for (const char* sec : {"grid", "params", "memory"}) w.Add(sec, saved.Get(sec));
  WriteFileAtomic(path, w.Finish());
  try {
    NeuTrajModel::Load(path);
    FAIL() << "a model with memory-updating inference was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("memory-updating inference"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace neutraj
