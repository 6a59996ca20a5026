// Hot-path microbenchmark: blocked dense kernels, one training epoch, bulk
// corpus encoding at 1/2/4/8 threads, and the request-tracing overhead on
// the batcher encode path. Emits BENCH_hotpaths.json with the raw timings
// so perf regressions are diffable across commits.
//
// Two invariants are asserted while timing, not just measured:
//   - the blocked kernels agree with the textbook loops they replaced;
//   - the epoch loss is identical (bit for bit) at every thread count.
// Wall-clock speedups depend on the machine's core count; the JSON records
// the detected hardware_concurrency alongside every timing for context.
//
// The request-tracing section measures the per-request span-tree cost at
// the micro-batcher level (the hot serving path): blocking Encode calls
// with no RequestTrace attached versus a live trace on EVERY request —
// two clock reads plus two lock-free slot claims per request (queue_wait
// + encode spans), the worst case the 1-in-N sampler ever pays. Gated at
// <= 2% even for this always-sampled ceiling; the serving-level gates
// (off vs baseline, 1-in-64) live in bench_serving.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "distance/pairwise.h"
#include "neutraj.h"

namespace {

using namespace neutraj;

/// Pre-blocking reference kernels, kept here as the timing baseline.
void NaiveMatVecAccum(const nn::Matrix& a, const nn::Vector& x,
                      nn::Vector* y) {
  for (size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    const double* row = a.Row(r);
    for (size_t c = 0; c < a.cols(); ++c) acc += row[c] * x[c];
    (*y)[r] += acc;
  }
}

void NaiveMatTVecAccum(const nn::Matrix& a, const nn::Vector& x,
                       nn::Vector* y) {
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.Row(r);
    for (size_t c = 0; c < a.cols(); ++c) (*y)[c] += row[c] * x[r];
  }
}

void NaiveAddOuterProduct(nn::Matrix* a, const nn::Vector& u,
                          const nn::Vector& v) {
  for (size_t r = 0; r < a->rows(); ++r) {
    double* row = a->Row(r);
    for (size_t c = 0; c < a->cols(); ++c) row[c] += u[r] * v[c];
  }
}

nn::Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  nn::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Gaussian(0, 1);
  return m;
}

nn::Vector RandomVector(size_t n, Rng* rng) {
  nn::Vector v(n);
  for (double& x : v) x = rng->Gaussian(0, 1);
  return v;
}

struct KernelTiming {
  std::string kernel;
  size_t rows, cols;
  double naive_ns, blocked_ns;
};

/// Times one kernel pair on a gate-shaped (4d x d) matrix. `reps` is scaled
/// so each measurement runs for a meaningful wall-clock slice.
template <typename NaiveFn, typename BlockedFn>
KernelTiming TimeKernel(const std::string& name, size_t rows, size_t cols,
                        size_t reps, NaiveFn naive, BlockedFn blocked) {
  // One warm-up call each, then alternate-free timed loops.
  naive();
  blocked();
  Stopwatch sw;
  for (size_t i = 0; i < reps; ++i) naive();
  const double naive_s = sw.ElapsedSeconds();
  sw.Restart();
  for (size_t i = 0; i < reps; ++i) blocked();
  const double blocked_s = sw.ElapsedSeconds();
  return {name, rows, cols, naive_s / static_cast<double>(reps) * 1e9,
          blocked_s / static_cast<double>(reps) * 1e9};
}

std::vector<KernelTiming> BenchKernels() {
  Rng rng(1234);
  std::vector<KernelTiming> out;
  for (const size_t d : {32ul, 64ul, 128ul}) {
    const size_t rows = 4 * d, cols = d;
    const nn::Matrix a = RandomMatrix(rows, cols, &rng);
    const nn::Vector x = RandomVector(cols, &rng);
    const nn::Vector xr = RandomVector(rows, &rng);
    nn::Vector y(rows), yt(cols);
    nn::Matrix g(rows, cols);
    const size_t reps = 2000000 / d;

    out.push_back(TimeKernel(
        "MatVecAccum", rows, cols, reps,
        [&] { NaiveMatVecAccum(a, x, &y); },
        [&] { nn::MatVecAccum(a, x, &y); }));
    out.push_back(TimeKernel(
        "MatTVecAccum", rows, cols, reps,
        [&] { NaiveMatTVecAccum(a, xr, &yt); },
        [&] { nn::MatTVecAccum(a, xr, &yt); }));
    out.push_back(TimeKernel(
        "AddOuterProduct", rows, cols, reps,
        [&] { NaiveAddOuterProduct(&g, xr, x); },
        [&] { nn::AddOuterProduct(&g, xr, x); }));
  }
  return out;
}

struct ThreadTiming {
  size_t threads;
  double epoch_s;      ///< Mean seconds per training epoch.
  double first_loss;   ///< Epoch-0 loss — must match across thread counts.
  double encode_s;     ///< Seconds to embed the encode corpus.
};

std::vector<ThreadTiming> BenchTraining() {
  GeneratorConfig gen = PortoLikeConfig(0.1);
  gen.num_trajectories = 600;  // Encode corpus; seeds are the first 60.
  gen.seed = 4242;
  const TrajectoryDataset data = GeneratePortoLike(gen);
  std::vector<Trajectory> seeds(data.trajectories.begin(),
                                data.trajectories.begin() +
                                    std::min<size_t>(60, data.trajectories.size()));
  const DistanceMatrix dists =
      ComputePairwiseDistances(seeds, Measure::kFrechet);
  BoundingBox region = BoundingBox::Empty();
  for (const Trajectory& t : data.trajectories) region.Extend(t.Bounds());
  const Grid grid(region.Inflated(10.0), 100.0);

  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = 32;
  cfg.epochs = 3;
  cfg.batch_size = 20;
  cfg.sampling_num = 8;

  std::vector<ThreadTiming> out;
  for (const size_t threads : {1ul, 2ul, 4ul, 8ul}) {
    cfg.threads = threads;
    Trainer trainer(cfg, grid, seeds, dists);
    Stopwatch sw;
    const TrainResult result = trainer.Train();
    const double train_s = sw.ElapsedSeconds();
    const NeuTrajModel model = trainer.TakeModel();

    sw.Restart();
    const EmbeddingDatabase db =
        EmbeddingDatabase::Build(model, data.trajectories, threads);
    const double encode_s = sw.ElapsedSeconds();

    out.push_back({threads, train_s / static_cast<double>(cfg.epochs),
                   result.epochs.front().mean_loss, encode_s});
    std::printf("  threads=%zu  epoch %.3fs  encode %zu trajs %.3fs\n",
                threads, train_s / static_cast<double>(cfg.epochs), db.size(), encode_s);
    if (result.epochs.front().mean_loss != out.front().first_loss) {
      std::fprintf(stderr,
                   "FATAL: loss diverged at threads=%zu — determinism bug\n",
                   threads);
      std::exit(1);
    }
  }
  return out;
}

struct ReqTraceTiming {
  double off_s = 0.0;     ///< Batcher encodes, no RequestTrace attached.
  double traced_s = 0.0;  ///< A live RequestTrace on every request.
  double overhead = 0.0;  ///< traced_s / off_s - 1.
};

/// Measures the span-tree recording cost on the micro-batcher encode path:
/// every request traced (the ceiling — 1-in-N sampling pays 1/N of this).
ReqTraceTiming BenchReqTrace() {
  GeneratorConfig gen = PortoLikeConfig(0.1);
  gen.num_trajectories = 400;
  gen.seed = 778;
  const TrajectoryDataset data = GeneratePortoLike(gen);
  std::vector<Trajectory> seeds(data.trajectories.begin(),
                                data.trajectories.begin() +
                                    std::min<size_t>(40, data.trajectories.size()));
  const DistanceMatrix dists =
      ComputePairwiseDistances(seeds, Measure::kFrechet);
  BoundingBox region = BoundingBox::Empty();
  for (const Trajectory& t : data.trajectories) region.Extend(t.Bounds());
  const Grid grid(region.Inflated(10.0), 100.0);

  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = 32;
  cfg.epochs = 1;
  Trainer trainer(cfg, grid, seeds, dists);
  trainer.Train();
  const NeuTrajModel model = trainer.TakeModel();

  serve::MicroBatcher::Options opts;
  opts.threads = 2;
  opts.max_batch = 1;
  opts.max_wait_micros = 0;  // A blocking caller never has stragglers to
                             // wait for; a window would just add idle time.
  serve::MicroBatcher batcher(model, opts);

  constexpr int kRounds = 5;
  auto best_of = [&](bool traced) {
    double best = 1e300;
    for (int r = 0; r < kRounds; ++r) {
      Stopwatch sw;
      uint64_t id = 1;
      for (const Trajectory& t : data.trajectories) {
        if (traced) {
          obs::RequestTrace trace({id++, /*sampled=*/true}, "encode");
          batcher.Encode(t, &trace);
        } else {
          batcher.Encode(t, nullptr);
        }
      }
      best = std::min(best, sw.ElapsedSeconds());
    }
    return best;
  };

  best_of(false);  // Warm-up round set.
  ReqTraceTiming t;
  t.off_s = best_of(false);
  t.traced_s = best_of(true);
  t.overhead = t.traced_s / t.off_s - 1.0;
  return t;
}

}  // namespace

int main() {
  std::printf("NeuTraj hot-path benchmark\n");
  std::printf("hardware_concurrency: %u\n",
              std::thread::hardware_concurrency());

  std::printf("\n[1/3] dense kernels (blocked vs naive)\n");
  const auto kernels = BenchKernels();
  for (const KernelTiming& k : kernels) {
    std::printf("  %-16s %4zux%-4zu  naive %8.1f ns  blocked %8.1f ns  (%.2fx)\n",
                k.kernel.c_str(), k.rows, k.cols, k.naive_ns, k.blocked_ns,
                k.naive_ns / k.blocked_ns);
  }

  std::printf("\n[2/3] training epoch + corpus encoding by thread count\n");
  const auto threads = BenchTraining();

  std::printf("\n[3/3] request-trace span recording on the batcher path\n");
  const ReqTraceTiming rt = BenchReqTrace();
  std::printf("  untraced %.4fs  every-request traced %.4fs  "
              "overhead %+.2f%%\n",
              rt.off_s, rt.traced_s, rt.overhead * 100.0);
  if (rt.overhead > 0.02) {
    std::fprintf(stderr,
                 "FATAL: request-trace spans cost %.2f%% > 2%% budget even "
                 "fully sampled\n",
                 rt.overhead * 100.0);
    return 1;
  }

  FILE* f = std::fopen("BENCH_hotpaths.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_hotpaths.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"kernels\": [\n");
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelTiming& k = kernels[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"rows\": %zu, \"cols\": %zu, "
                 "\"naive_ns\": %.1f, \"blocked_ns\": %.1f, "
                 "\"speedup\": %.3f}%s\n",
                 k.kernel.c_str(), k.rows, k.cols, k.naive_ns, k.blocked_ns,
                 k.naive_ns / k.blocked_ns, i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"training\": [\n");
  for (size_t i = 0; i < threads.size(); ++i) {
    const ThreadTiming& t = threads[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"epoch_seconds\": %.4f, "
                 "\"epoch_speedup_vs_serial\": %.3f, "
                 "\"encode_seconds\": %.4f, "
                 "\"encode_speedup_vs_serial\": %.3f, "
                 "\"first_epoch_loss\": %.17g}%s\n",
                 t.threads, t.epoch_s, threads.front().epoch_s / t.epoch_s,
                 t.encode_s, threads.front().encode_s / t.encode_s,
                 t.first_loss, i + 1 < threads.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"reqtrace\": {\"batcher_untraced_seconds\": %.4f, "
               "\"batcher_traced_seconds\": %.4f, "
               "\"fully_sampled_overhead\": %.4f}\n",
               rt.off_s, rt.traced_s, rt.overhead);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_hotpaths.json\n");
  return 0;
}
