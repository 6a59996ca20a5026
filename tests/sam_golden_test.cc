// Golden pin of the SAM backbones: IEEE-754 bit patterns of inference
// embeddings, of one Backward's gradients and of a short training run, for
// fixed-seed SAM-LSTM and SAM-GRU models whose memory has been written.
//
// The determinism tests elsewhere compare two runs inside one binary, so a
// refactor that changes a result the same way on both sides passes them;
// these constants do not. They were captured on x86-64 (SSE2 doubles, no
// FMA contraction) with glibc's libm; a platform whose exp/tanh differ in
// the last bit would need its own capture.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "distance/pairwise.h"
#include "obs/jsonl.h"
#include "test_util.h"

namespace neutraj {
namespace {

/// The hex bit patterns of `values`, space-separated.
std::string Hex(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    char buf[18];
    std::snprintf(buf, sizeof(buf), "%s%016" PRIx64, out.empty() ? "" : " ",
                  bits);
    out += buf;
  }
  return out;
}

/// A d = 4, w = 1 encoder whose memory four update_memory=true encodes
/// wrote. Returns three read-only re-encodes of those trajectories (the
/// first without a workspace), then the first and last entry of every
/// parameter's gradient after a taped encode and a Backward of
/// 0.5 ||e||^2 into a GradBuffer, four entries per string.
std::vector<std::string> RunEncoder(nn::Backbone backbone) {
  Rng rng(2024);
  nn::Encoder enc(backbone, Grid(BoundingBox{0, 0, 1000, 1000}, 100.0),
                  /*hidden_dim=*/4, /*scan_width=*/1);
  enc.Initialize(&rng);
  std::vector<Trajectory> writers;
  for (int i = 0; i < 4; ++i) {
    writers.push_back(testing::RandomTrajectory(8, 1000.0, &rng));
    enc.Encode(writers.back(), /*update_memory=*/true);
  }
  std::vector<std::string> out;
  nn::CellWorkspace ws;
  out.push_back(Hex(enc.Encode(writers[0], false)));
  out.push_back(Hex(enc.Encode(writers[1], false, nullptr, &ws)));
  out.push_back(Hex(enc.Encode(writers[2], false, nullptr, &ws)));
  nn::GradBuffer grads(enc.Params());
  nn::EncodeTape tape;
  const nn::Vector e = enc.Encode(writers[3], false, &tape, &ws);
  enc.Backward(tape, e, &grads, &ws);
  for (size_t p = 0; p < grads.size(); p += 2) {
    out.push_back(Hex({grads.at(p).values().front(), grads.at(p).values().back(),
                       grads.at(p + 1).values().front(),
                       grads.at(p + 1).values().back()}));
  }
  return out;
}

/// The final epoch's mean loss and SAM attention entropy of a two-epoch,
/// one-thread Trainer run (metrics sink attached, so entropy is computed).
std::string RunTrainer(nn::Backbone backbone) {
  Rng rng(77);
  const auto corpus = testing::RandomCorpus(14, 6, 10, 1000.0, &rng);
  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.backbone = backbone;
  cfg.embedding_dim = 6;
  cfg.scan_width = 1;
  cfg.sampling_num = 3;
  cfg.batch_size = 5;
  cfg.epochs = 2;
  cfg.learning_rate = 5e-3;
  BoundingBox region = BoundingBox::Empty();
  for (const Trajectory& t : corpus) region.Extend(t.Bounds());
  Trainer trainer(cfg, Grid(region.Inflated(10.0), 80.0), corpus,
                  ComputePairwiseDistances(corpus, Measure::kFrechet));
  const std::string path = ::testing::TempDir() + "/sam_golden.jsonl";
  obs::JsonlSink sink(path);
  trainer.SetMetricsSink(&sink);
  const TrainResult r = trainer.Train();
  std::remove(path.c_str());
  return Hex({r.epochs.back().mean_loss, r.epochs.back().sam_attention_entropy});
}

TEST(SamGoldenTest, SamLstmEncoderIsBitIdentical) {
  EXPECT_EQ(RunEncoder(nn::Backbone::kSamLstm), std::vector<std::string>({
      "bfda4d0bffe136f2 bf5f9ada10e16566 bfd97e2fd94446c9 bfc65ea3d86fe8d6",
      "bfdb540fa5cb805d bf943545ad4db080 bfd54a8001252f72 bfce4664772666ce",
      "bfd8ace5d392edcf bfb75e0de2507683 bfca9bdaf574fb41 bfc969485c8ee900",
      // Gradients: (Wg, Ug), (bg, Wc|Wn), (Uc|Un, bc|bn), (Whis, bhis).
      "3f84b591fa3f10dc 3f87bddb4d254b86 bf8189e16f78f90b bf6a79e126a99134",
      "3f958c749788687f 3f8cca749c6b42f2 bf748917f6ea765c bf9fc5995a4148cd",
      "3f6efc842ad0b035 3f7c2bb5e2d46548 bf84d24bfe51aa21 bfa3fc84aa696b27",
      "3f83c3aec3a9722a 3f596f66f1af8672 bf7b0216c868c2fe bf918d8a0bb5f6fe",
  }));
}

TEST(SamGoldenTest, SamGruEncoderIsBitIdentical) {
  EXPECT_EQ(RunEncoder(nn::Backbone::kSamGru), std::vector<std::string>({
      "bfdd7a35db8d6165 3fd2ba2a28ea4783 3fa46cddf6ea5a05 bfd01a3784c41094",
      "bfe3948a4567410b 3fd6138edbd9c20e bfcfd483ec9516c4 bfcba6c117c9263e",
      "bfd4c97f7133defe 3fbbbf6c760f0c44 bfe02f8ab8a9e117 3f7d7601c1caad41",
      // Gradients: (Wg, Ug), (bg, Wc|Wn), (Uc|Un, bc|bn), (Whis, bhis).
      "3fa28c46c304b18d bf706513384d460d bfa2b4400ed1da2d 3f48432e042e78b6",
      "3fb20c53c9b9b56f bf77ecffca188933 bfd1d1fbff351bf3 bfd2ee9b21964e87",
      "3fc21a74f4c68a59 3fa18261aef47593 bfe129238b19a6e0 bfdb92fe37183033",
      "3fa93a491bb1e02e 3f6831e3fb57c3d8 bfb8007c38bf9411 bfb14c154b0b4e71",
  }));
}

TEST(SamGoldenTest, SamLstmTrainingIsBitIdentical) {
  EXPECT_EQ(RunTrainer(nn::Backbone::kSamLstm),
            "3fc883bebd2480c6 3ffbbd94371f2eb9");
}

TEST(SamGoldenTest, SamGruTrainingIsBitIdentical) {
  EXPECT_EQ(RunTrainer(nn::Backbone::kSamGru),
            "3fc94f3bc0a8a7c1 3ffd13de6348ecd6");
}

}  // namespace
}  // namespace neutraj
