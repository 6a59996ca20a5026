#include "layers.h"

#include <filesystem>
#include <stdexcept>

#include "bench_util.h"
#include "common/framing.h"
#include "common/random.h"
#include "core/sampler.h"
#include "nn/adam.h"
#include "nn/matrix.h"
#include "nn/workspace.h"
#include "seams.h"
#include "serve/protocol.h"
#include "store/durable_store.h"

namespace perfbench {

using neutraj::Trajectory;
namespace nn = neutraj::nn;
namespace serve = neutraj::serve;

namespace {

double MicrosSince(Clock::time_point t0) { return SecondsSince(t0) * 1e6; }

}  // namespace

EmbedProbe ProbeEmbed(const neutraj::NeuTrajModel& model,
                      const std::vector<Trajectory>& trajs, size_t max_items) {
  EmbedProbe p;
  nn::CellWorkspace ws;
  model.Embed(trajs.front(), &ws);  // Warm the workspace.
  double total_us = 0.0;
  size_t points = 0;
  for (size_t i = 0; i < std::min(max_items, trajs.size()); ++i) {
    const Clock::time_point t0 = Clock::now();
    const nn::Vector e = model.Embed(trajs[i], &ws);
    const double t = MicrosSince(t0);
    if (e.empty()) throw std::runtime_error("ProbeEmbed: empty embedding");
    p.item_us.push_back(t);
    total_us += t;
    points += trajs[i].size();
  }
  p.embed_us = Median(p.item_us);
  p.ns_per_point = total_us * 1e3 / static_cast<double>(points);
  return p;
}

double ProbeBackwardUs(neutraj::NeuTrajModel* model,
                       const std::vector<Trajectory>& trajs,
                       size_t max_items) {
  nn::Encoder& enc = model->encoder();
  nn::GradBuffer grads(enc.Params());
  nn::CellWorkspace ws;
  const nn::Vector d_embedding(enc.hidden_dim(), 1e-3);
  std::vector<double> us;
  for (size_t i = 0; i < std::min(max_items, trajs.size()); ++i) {
    nn::EncodeTape tape;
    enc.Encode(trajs[i], /*update_memory=*/false, &tape, &ws);
    const Clock::time_point t0 = Clock::now();
    enc.Backward(tape, d_embedding, &grads, &ws);
    us.push_back(MicrosSince(t0));
  }
  return Median(us);
}

double ProbeAdamStepUs(neutraj::NeuTrajModel* model, size_t steps) {
  std::vector<nn::Param*> params = model->encoder().Params();
  nn::Adam adam(params);
  std::vector<double> us;
  for (size_t s = 0; s < steps; ++s) {
    for (nn::Param* p : params) {
      for (double& g : p->grad.values()) g = 1e-4;
    }
    const Clock::time_point t0 = Clock::now();
    adam.Step();
    us.push_back(MicrosSince(t0));
  }
  return Median(us);
}

double ProbeMatVecGflops(size_t d) {
  struct Shape {
    nn::Matrix a;
    nn::Vector x, y;  // x: cols, y: rows.
  };
  neutraj::Rng rng(7);
  std::vector<Shape> shapes;
  for (auto [rows, cols] : {std::pair<size_t, size_t>{4 * d, d},
                            {d, d},
                            {d, 2 * d}}) {
    Shape s{nn::Matrix(rows, cols), nn::Vector(cols), nn::Vector(rows)};
    for (double& v : s.a.values()) v = rng.Uniform(-0.1, 0.1);
    for (double& v : s.x) v = rng.Uniform(-1.0, 1.0);
    for (double& v : s.y) v = rng.Uniform(-1.0, 1.0);
    shapes.push_back(std::move(s));
  }
  // Warm up, then time whole rounds for at least 0.2 s.
  double flops = 0.0;
  const auto round = [&] {
    for (Shape& s : shapes) {
      nn::MatVecAccum(s.a, s.x, &s.y);
      nn::MatTVecAccum(s.a, s.y, &s.x);
      nn::AddOuterProduct(&s.a, s.y, s.x);
      flops += 3.0 * 2.0 * static_cast<double>(s.a.rows() * s.a.cols());
      // Keep values bounded so the loop never degenerates to inf/NaN.
      for (double& v : s.x) v *= 1e-3;
      for (double& v : s.y) v *= 1e-3;
    }
  };
  for (int i = 0; i < 20; ++i) round();
  flops = 0.0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  while ((elapsed = SecondsSince(t0)) < 0.2) {
    for (int i = 0; i < 20; ++i) round();
  }
  return flops / elapsed / 1e9;
}

double ProbeSampleUs(const neutraj::SimilarityMatrix& s, size_t n,
                     uint64_t seed) {
  neutraj::Rng rng(seed);
  std::vector<double> us;
  for (int round = 0; round < 5; ++round) {
    for (size_t a = 0; a < s.size(); ++a) {
      const Clock::time_point t0 = Clock::now();
      const neutraj::AnchorSample sample = neutraj::SampleAnchorPairs(
          s, a, n, neutraj::SamplingStrategy::kDistanceWeighted, &rng);
      us.push_back(MicrosSince(t0));
      if (sample.similar.empty()) {
        throw std::runtime_error("ProbeSampleUs: empty sample");
      }
    }
  }
  return Median(us);
}

double ProbeDbInsertUs(const std::vector<nn::Vector>& rows, size_t count) {
  neutraj::EmbeddingDatabase db;
  std::vector<double> us;
  us.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const Clock::time_point t0 = Clock::now();
    db.Insert(rows[i % rows.size()]);
    us.push_back(MicrosSince(t0));
  }
  return Median(us);
}

double ProbeExactTopKMs(const neutraj::EmbeddingDatabase& db,
                        const std::vector<nn::Vector>& queries, size_t k) {
  std::vector<double> ms;
  for (const nn::Vector& q : queries) {
    const Clock::time_point t0 = Clock::now();
    const neutraj::SearchResult r = db.TopK(q, k);
    ms.push_back(SecondsSince(t0) * 1e3);
    if (r.ids.empty()) throw std::runtime_error("ProbeExactTopKMs: no hits");
  }
  return Median(ms);
}

double ProbeProtocolUs(const std::vector<std::string>& frames, size_t k) {
  serve::TopKResponse topk_reply;
  for (size_t i = 0; i < k; ++i) {
    topk_reply.ids.push_back(i * 7919);
    topk_reply.dists.push_back(0.125 * static_cast<double>(i));
  }
  std::vector<double> us;
  for (const std::string& frame : frames) {
    const Clock::time_point t0 = Clock::now();
    size_t offset = 0;
    neutraj::WireFrame request;
    if (neutraj::DecodeWireFrame(frame, &offset, &request) !=
        neutraj::FrameStatus::kOk) {
      throw std::runtime_error("ProbeProtocolUs: bad request frame");
    }
    std::string reply;
    if (request.type ==
        static_cast<uint16_t>(serve::MsgType::kTopKRequest)) {
      serve::TopKRequest req;
      if (!serve::ParseTopKRequest(request.payload, &req)) {
        throw std::runtime_error("ProbeProtocolUs: bad TopK payload");
      }
      reply = neutraj::EncodeWireFrame(
          static_cast<uint16_t>(serve::MsgType::kTopKResponse),
          serve::SerializeTopKResponse(topk_reply));
    } else {
      serve::InsertRequest req;
      if (!serve::ParseInsertRequest(request.payload, &req)) {
        throw std::runtime_error("ProbeProtocolUs: bad Insert payload");
      }
      serve::InsertResponse resp;
      resp.id = req.traj.size();
      resp.corpus_size = resp.id + 1;
      reply = neutraj::EncodeWireFrame(
          static_cast<uint16_t>(serve::MsgType::kInsertResponse),
          serve::SerializeInsertResponse(resp));
    }
    size_t reply_offset = 0;
    neutraj::WireFrame decoded;
    if (neutraj::DecodeWireFrame(reply, &reply_offset, &decoded) !=
        neutraj::FrameStatus::kOk) {
      throw std::runtime_error("ProbeProtocolUs: bad reply frame");
    }
    us.push_back(MicrosSince(t0));
  }
  return Median(us);
}

StoreProbe ProbeStore(const std::vector<nn::Vector>& corpus,
                      const std::string& dir) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);
  StoreProbe p;
  {
    neutraj::EmbeddingDatabase db;
    for (const nn::Vector& row : corpus) db.Insert(row);
    CountingFileFactory files;
    neutraj::store::DurableStore::Options opts;
    opts.data_dir = dir;
    opts.files = &files;
    neutraj::store::DurableStore store(&db, opts);
    store.Open();  // Snapshots the starting rows.
    files.Reset();
    const size_t inserts = opts.compact_every;
    std::vector<double> us;
    for (size_t i = 0; i < inserts; ++i) {
      const Clock::time_point t0 = Clock::now();
      store.Insert(corpus[i % corpus.size()]);
      us.push_back(MicrosSince(t0));
    }
    const double compacting_us = us.back();
    us.pop_back();
    p.insert_us = Median(us);
    p.compact_ms = (compacting_us - p.insert_us) / 1e3;
    const CountingFileFactory::Counts c = files.counts();
    p.fsyncs_per_insert =
        static_cast<double>(c.fsyncs) / static_cast<double>(inserts);
    p.bytes_written_per_insert =
        static_cast<double>(c.bytes_appended) / static_cast<double>(inserts);
    const Clock::time_point t0 = Clock::now();
    const neutraj::EmbeddingDatabase loaded =
        neutraj::EmbeddingDatabase::Load(store.snapshot_path());
    p.load_s = SecondsSince(t0);
    if (loaded.size() != corpus.size() + inserts) {
      throw std::runtime_error("ProbeStore: snapshot lost rows");
    }
  }
  fs::remove_all(dir);
  return p;
}

}  // namespace perfbench
