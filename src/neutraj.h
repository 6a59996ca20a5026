// Umbrella header for the NeuTraj C++ library.
//
// Quickstart:
//
//   #include "neutraj.h"
//
//   neutraj::TrajectoryDataset db =
//       neutraj::GeneratePortoLike(neutraj::PortoLikeConfig());
//   neutraj::DatasetSplit split = neutraj::SplitDataset(db);
//
//   neutraj::NeuTrajConfig cfg = neutraj::NeuTrajConfig::NeuTraj();
//   cfg.measure = neutraj::Measure::kFrechet;
//   neutraj::DistanceMatrix d =
//       neutraj::ComputePairwiseDistances(split.seeds, cfg.measure);
//   neutraj::Grid grid(db.region, /*cell_size=*/50.0);
//   neutraj::Trainer trainer(cfg, grid, split.seeds, d);
//   trainer.Train();
//   neutraj::NeuTrajModel model = trainer.TakeModel();
//
//   double s = model.Similarity(t1, t2);   // O(|t1| + |t2|)

#ifndef NEUTRAJ_NEUTRAJ_H_
#define NEUTRAJ_NEUTRAJ_H_

#include "approx/approx_registry.h"
#include "approx/fast_dtw.h"
#include "approx/frechet_approx.h"
#include "approx/grid_snap.h"
#include "approx/hausdorff_embed.h"
#include "cluster/dbscan.h"
#include "cluster/metrics.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/string_util.h"
#include "core/config.h"
#include "core/embedding_db.h"
#include "core/loss.h"
#include "core/model.h"
#include "core/sampler.h"
#include "core/search.h"
#include "core/similarity.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/road_network.h"
#include "distance/measures.h"
#include "distance/pairwise.h"
#include "eval/metrics.h"
#include "eval/model_cache.h"
#include "eval/protocol.h"
#include "geo/grid.h"
#include "geo/point.h"
#include "geo/preprocess.h"
#include "geo/traj_io.h"
#include "geo/trajectory.h"
#include "index/frechet_lsh.h"
#include "index/inverted_grid.h"
#include "index/rtree.h"
#include "index/vp_tree.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "retrieval/backend.h"
#include "retrieval/ivf_index.h"
#include "retrieval/kernels.h"
#include "retrieval/quantized.h"
#include "serve/client.h"
#include "serve/micro_batcher.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/stats.h"
#include "store/durable_store.h"
#include "store/wal.h"

#endif  // NEUTRAJ_NEUTRAJ_H_
