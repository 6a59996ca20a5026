// Serving benchmark: micro-batched encoding throughput over the wire, the
// request-tracing overhead, the durable-ack insert tax, and million-scale
// retrieval.
//
// Phase 1 starts four real loopback servers against the same model +
// corpus and times them in the same interleaved rounds — after a warm-up
// pass each, every round runs a fixed number of passes per server in a
// balanced order (each server first, and right after each other server,
// equally often) — so every comparison reads one measurement, with the
// min-max spread recorded:
//   - unbatched baseline: max_batch=1, no straggler window, one sequential
//     client issuing single Encode requests back to back — the
//     one-request-at-a-time cost every serving stack starts from;
//   - batched: max_batch=64 with a 200us straggler window and 8 concurrent
//     clients driving the pipelined EncodeMany path, so bursts coalesce
//     into real batches;
//   - trace-off: the batched configuration again. It must be within 1% of
//     batched — the same configuration, so this bounds the sampler's fast
//     path, one branch per request, at the measurement noise floor;
//   - trace-1/64: the batched configuration with 1-in-64 head sampling,
//     within 2% of trace-off.
// The tracing overheads are paired estimates: each round yields one ratio
// (batched / trace-off, trace-off / trace-1/64) of two legs timed back to
// back, and the gate reads the median of those per-round ratios, which
// cancels the drift that moves whole rounds (whole-leg medians moved
// +-15-30% between runs). They are recorded signed, with their min-max over
// rounds: a leg that beats its baseline reads negative, which shows the
// noise the bounds sit in. Trajectories
// are kept short so the per-request transport + dispatch overhead — the
// cost micro-batching amortizes — is visible next to the O(L d^2) encode
// compute; that ratio, not raw model speed, is what this benchmark tracks.
// Each server also reports its p50/p99 encode latency from the endpoint
// histogram snapshot. The phase also pins that served bytes are
// bit-identical with a sampled trace context attached versus none: the
// serialized replies to the same query must match byte for byte.
//
// Phase 2 measures the durable-ack insert tax: the same embedding sequence
// appended to a plain in-memory EmbeddingDatabase versus through
// DurableStore (WAL append + fsync before ack). The encode step is excluded
// on purpose — it would dominate and hide the durability cost this phase
// exists to track.
//
// Phase 3 is the retrieval subsystem at the scale it was built for: a
// seeded, clustered 1M x dim-8 synthetic corpus queried two ways —
//   - exact: the flat EmbeddingDatabase O(N * d) scan (the baseline and the
//     ground truth for recall);
//   - ivf: IvfBackend — IVF probe over the int8 quantized tier, then exact
//     float re-rank, so scores match the exact path and only recall is
//     approximate.
// The two legs are timed interleaved over the same queries, the first leg
// alternating round by round, so machine drift lands on both alike.
// Reports each leg's median qps with its min-max spread and pooled
// per-query p50/p99, plus recall@10 for the ANN path, and records the
// knobs (nlist, nprobe, rerank, seed, kernel) next to the numbers in
// BENCH_serving.json.
//
// Exit status is the acceptance gate: batched >= 2x unbatched, tracing
// overhead within budget, traced/untraced served bytes identical, and
// IVF+int8 >= 10x exact-scan median qps at recall@10 >= 0.95.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "neutraj.h"

namespace {

using namespace neutraj;

constexpr size_t kEmbeddingDim = 8;
constexpr size_t kMaxTrajLen = 4;
const size_t kServerThreads =
    std::max<size_t>(1, std::thread::hardware_concurrency());
constexpr size_t kConcurrentClients = 8;
constexpr size_t kBurstSize = 64;
constexpr size_t kBurstsPerClient = 16;

// Phase 3 (retrieval) shape: a clustered corpus — the regime IVF exists
// for — with queries drawn as small perturbations of corpus rows, the way
// trajectory-similarity queries sit near the embedding manifold.
constexpr size_t kRetrievalCorpus = 1000000;
constexpr size_t kRetrievalCenters = 200;
constexpr double kCenterSigma = 4.0;
constexpr double kSpreadSigma = 0.3;
constexpr uint64_t kRetrievalSeed = 97;
constexpr size_t kRetrievalQueries = 64;
constexpr size_t kRetrievalK = 10;
constexpr size_t kRetrievalRounds = 6;  ///< Interleaved rounds per leg.

// Phase 1 (serving) shape: each round times this many passes per server
// (~0.02-0.04 s each on 4 cores).
constexpr size_t kServingRounds = 16;
constexpr size_t kServingPassesPerRound = 8;

struct LatencyStats {
  std::vector<double> round_qps;  ///< One entry per round, in round order.
  double median_qps = 0.0;
  double min_qps = 0.0;  ///< Spread of the per-round qps.
  double max_qps = 0.0;
  double p50_micros = 0.0;
  double p99_micros = 0.0;
};

/// Nearest-rank percentile of `micros` (q in (0, 1]).
double Percentile(std::vector<double> micros, double q) {
  if (micros.empty()) return 0.0;
  std::sort(micros.begin(), micros.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(micros.size())));
  return micros[std::min(micros.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Median of `v` (mean of the two middle values for an even count).
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Leg `turn` of round `round` in a Williams design over an even number k
/// of legs: in every k rounds each leg runs first once and directly follows
/// each other leg once. (A cyclic rotation always puts a leg after the same
/// predecessor, which then carries over into its timing.)
size_t BalancedLeg(size_t round, size_t turn, size_t k) {
  return ((turn % 2 == 1 ? (turn + 1) / 2 : k - turn / 2) + round) % k;
}

/// Times each of `legs` over the same n operations, interleaved round by
/// round after one warm-up pass each, in BalancedLeg order (`rounds` a
/// multiple of the even leg count), so drift, first-mover cost and carry-over
/// land on all legs alike. qps is summarized per round (median and min-max);
/// p50/p99 pool the per-operation latencies of every round.
std::vector<LatencyStats> MeasureInterleaved(
    size_t n, size_t rounds,
    const std::vector<std::function<void(size_t)>>& legs) {
  if (legs.size() % 2 != 0 || rounds % legs.size() != 0) {
    std::fprintf(stderr, "MeasureInterleaved: needs whole balanced cycles\n");
    std::exit(2);
  }
  std::vector<std::vector<double>> qps(legs.size());
  std::vector<std::vector<double>> lat(legs.size());
  for (const auto& run : legs) {
    for (size_t i = 0; i < n; ++i) run(i);
  }
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t turn = 0; turn < legs.size(); ++turn) {
      const size_t leg = BalancedLeg(round, turn, legs.size());
      Stopwatch total;
      for (size_t i = 0; i < n; ++i) {
        Stopwatch sw;
        legs[leg](i);
        lat[leg].push_back(sw.ElapsedSeconds() * 1e6);
      }
      qps[leg].push_back(static_cast<double>(n) / total.ElapsedSeconds());
    }
  }
  std::vector<LatencyStats> out(legs.size());
  for (size_t leg = 0; leg < legs.size(); ++leg) {
    out[leg].round_qps = qps[leg];
    out[leg].median_qps = Median(qps[leg]);
    const auto [lo, hi] = std::minmax_element(qps[leg].begin(), qps[leg].end());
    out[leg].min_qps = *lo;
    out[leg].max_qps = *hi;
    out[leg].p50_micros = Percentile(lat[leg], 0.5);
    out[leg].p99_micros = Percentile(lat[leg], 0.99);
  }
  return out;
}

struct PhaseResult {
  std::string name;
  size_t clients = 0;
  size_t requests = 0;    ///< Per pass.
  double seconds = 0.0;   ///< Per pass, at the median qps.
  double qps = 0.0;       ///< Median over rounds.
  double min_qps = 0.0;   ///< Spread over rounds.
  double max_qps = 0.0;
  std::vector<double> round_qps;  ///< Passes/s per round, in round order.
  double mean_batch = 0.0;
  uint64_t batches = 0;
  double p50_micros = 0.0;  ///< Server-side encode endpoint latency.
  double p99_micros = 0.0;
};

/// One timed pass: `clients` threads, each issuing its share of requests.
/// Pipelined clients send EncodeMany bursts; sequential clients send one
/// Encode at a time.
double TimedPass(const std::vector<Trajectory>& corpus, uint16_t port,
                 size_t clients, bool pipelined) {
  Stopwatch sw;
  std::vector<std::thread> workers;
  workers.reserve(clients);
  const size_t per_client = kBurstSize * kBurstsPerClient;
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      serve::Client client;
      client.Connect("127.0.0.1", port);
      if (pipelined) {
        std::vector<Trajectory> burst(kBurstSize);
        for (size_t b = 0; b < kBurstsPerClient; ++b) {
          for (size_t i = 0; i < kBurstSize; ++i) {
            burst[i] = corpus[(c * per_client + b * kBurstSize + i) %
                              corpus.size()];
          }
          client.EncodeMany(burst);
        }
      } else {
        for (size_t i = 0; i < per_client; ++i) {
          client.Encode(corpus[(c * per_client + i) % corpus.size()]);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return sw.ElapsedSeconds();
}

/// One serving configuration: its own server, driven by `clients` threads.
struct ServingLeg {
  const char* name;
  serve::MicroBatcher::Options batch;
  size_t clients;
  bool pipelined;
  uint32_t trace_sample_every;  ///< 0 = tracer off.
};

/// Starts one server per leg, then times all of them in the same
/// interleaved rounds (MeasureInterleaved: a warm-up pass each, then a
/// balanced leg order), so every serving comparison reads one measurement.
/// qps is the per-round median with its min-max spread; p50/p99 come from
/// each server's encode endpoint histogram over warm-up and all rounds.
std::vector<PhaseResult> RunServingLegs(const NeuTrajModel& model,
                                        EmbeddingDatabase* db,
                                        const std::vector<Trajectory>& corpus,
                                        const std::vector<ServingLeg>& legs) {
  std::vector<std::unique_ptr<serve::QueryService>> services;
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::vector<std::function<void(size_t)>> passes;
  for (const ServingLeg& leg : legs) {
    services.push_back(
        std::make_unique<serve::QueryService>(model, db, leg.batch));
    if (leg.trace_sample_every > 0) {
      obs::ReqTraceOptions topts;
      topts.sample_every = leg.trace_sample_every;
      services.back()->ConfigureTracing(topts);
    }
    servers.push_back(std::make_unique<serve::Server>(services.back().get(),
                                                      serve::ServerOptions{}));
    servers.back()->Start();
    passes.push_back([&corpus, &leg, port = servers.back()->port()](size_t) {
      TimedPass(corpus, port, leg.clients, leg.pipelined);
    });
  }
  const std::vector<LatencyStats> timed =
      MeasureInterleaved(kServingPassesPerRound, kServingRounds, passes);

  std::vector<PhaseResult> out;
  for (size_t i = 0; i < legs.size(); ++i) {
    const serve::StatsSnapshot snap = services[i]->Snapshot();
    servers[i]->Stop();
    PhaseResult r;
    r.name = legs[i].name;
    r.clients = legs[i].clients;
    r.requests = r.clients * kBurstSize * kBurstsPerClient;
    // A leg's operation is one pass: scale passes/s to requests/s.
    const auto per_pass = static_cast<double>(r.requests);
    r.qps = timed[i].median_qps * per_pass;
    r.min_qps = timed[i].min_qps * per_pass;
    r.max_qps = timed[i].max_qps * per_pass;
    r.round_qps = timed[i].round_qps;
    r.seconds = per_pass / r.qps;
    r.mean_batch = snap.mean_batch_size;
    r.batches = snap.batches;
    for (const serve::EndpointSnapshot& es : snap.endpoints) {
      if (es.name == "encode") {
        r.p50_micros = es.p50_micros;
        r.p99_micros = es.p99_micros;
      }
    }
    std::printf("  %-10s %zu clients  %5zu reqs  %8.1f qps [%.1f, %.1f]  "
                "p50 %.0fus  p99 %.0fus  (mean batch %.2f over %llu "
                "batches)\n",
                r.name.c_str(), r.clients, r.requests, r.qps, r.min_qps,
                r.max_qps, r.p50_micros, r.p99_micros, r.mean_batch,
                static_cast<unsigned long long>(r.batches));
    out.push_back(r);
  }
  return out;
}

/// A paired overhead: over rounds, the median and min-max of
/// base.round_qps[r] / leg.round_qps[r] - 1 (positive: `leg` is slower).
struct PairedOverhead {
  double median, min, max;
};

PairedOverhead PairedRoundOverhead(const PhaseResult& base,
                                   const PhaseResult& leg) {
  std::vector<double> ratios;
  for (size_t r = 0; r < base.round_qps.size(); ++r) {
    ratios.push_back(base.round_qps[r] / leg.round_qps[r] - 1.0);
  }
  const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
  return {Median(ratios), *lo, *hi};
}

struct InsertResult {
  size_t inserts = 0;
  double plain_qps = 0.0;
  double durable_qps = 0.0;
  double overhead = 0.0;  ///< plain_qps / durable_qps (>= 1: the ack tax).
};

/// Phase 2: durable-ack insert overhead, measured without the encode step.
InsertResult RunInsertPhase(const EmbeddingDatabase& source) {
  constexpr size_t kDurableInserts = 1000;
  std::vector<nn::Vector> rows;
  rows.reserve(kDurableInserts);
  for (size_t i = 0; i < kDurableInserts; ++i) {
    rows.push_back(source.embeddings()[i % source.size()]);
  }

  InsertResult r;
  r.inserts = kDurableInserts;
  {
    EmbeddingDatabase plain;
    Stopwatch sw;
    for (const nn::Vector& v : rows) plain.Insert(v);
    r.plain_qps = static_cast<double>(kDurableInserts) / sw.ElapsedSeconds();
  }
  {
    const std::string dir =
        (std::filesystem::temp_directory_path() / "neutraj_bench_store")
            .string();
    std::filesystem::remove_all(dir);
    EmbeddingDatabase db;
    store::DurableStore::Options opts;
    opts.data_dir = dir;
    store::DurableStore durable(&db, opts);
    durable.Open();
    Stopwatch sw;
    for (const nn::Vector& v : rows) durable.Insert(v);
    r.durable_qps = static_cast<double>(kDurableInserts) / sw.ElapsedSeconds();
    std::filesystem::remove_all(dir);
  }
  r.overhead = r.plain_qps / r.durable_qps;
  std::printf("  plain    %6zu inserts  %10.1f qps\n", r.inserts, r.plain_qps);
  std::printf("  durable  %6zu inserts  %10.1f qps  (%.1fx ack tax: "
              "WAL append + fsync)\n",
              r.inserts, r.durable_qps, r.overhead);
  return r;
}

// ---------------------------------------------------------------------------
// Phase 3: million-scale retrieval.

struct RetrievalResult {
  retrieval::IvfIndex::Options ivf;  ///< Knobs, recorded with the numbers.
  double build_seconds = 0.0;
  LatencyStats exact;
  LatencyStats ivf_stats;
  double recall = 0.0;       ///< recall@kRetrievalK vs the exact scan.
  double ivf_speedup = 0.0;  ///< ivf median qps / exact median qps.
};

RetrievalResult RunRetrievalPhase() {
  RetrievalResult r;
  r.ivf.nlist = 256;
  r.ivf.train_sample = 20000;
  r.ivf.kmeans_iters = 6;
  r.ivf.seed = 42;
  r.ivf.default_nprobe = 16;
  r.ivf.rerank = 128;

  // Seeded clustered corpus: centers well separated (sigma 4) next to the
  // in-cluster spread (sigma 0.3); queries perturbed off corpus rows.
  Rng rng(kRetrievalSeed);
  std::vector<nn::Vector> centers(kRetrievalCenters,
                                  nn::Vector(kEmbeddingDim));
  for (nn::Vector& c : centers) {
    for (double& x : c) x = rng.Gaussian(0.0, kCenterSigma);
  }
  std::vector<nn::Vector> rows;
  rows.reserve(kRetrievalCorpus);
  for (size_t i = 0; i < kRetrievalCorpus; ++i) {
    nn::Vector v = centers[i % centers.size()];
    for (double& x : v) x += rng.Gaussian(0.0, kSpreadSigma);
    rows.push_back(std::move(v));
  }
  std::vector<nn::Vector> queries(kRetrievalQueries,
                                  nn::Vector(kEmbeddingDim));
  for (nn::Vector& q : queries) {
    const nn::Vector& base = rows[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(kRetrievalCorpus) - 1))];
    for (size_t d = 0; d < kEmbeddingDim; ++d) {
      q[d] = base[d] + rng.Gaussian(0.0, 0.1);
    }
  }

  EmbeddingDatabase exact_db;
  for (const nn::Vector& v : rows) exact_db.Insert(v);
  std::vector<nn::Vector>().swap(rows);

  // Ground truth (and recall reference): the exact scan's answers.
  std::vector<SearchResult> truth(kRetrievalQueries);
  for (size_t i = 0; i < kRetrievalQueries; ++i) {
    truth[i] = exact_db.TopK(queries[i], kRetrievalK);
  }

  retrieval::IvfBackend ivf(&exact_db, r.ivf);
  {
    Stopwatch sw;
    ivf.Build(kServerThreads);
    r.build_seconds = sw.ElapsedSeconds();
  }
  std::printf("  ivf build: %.2fs  (nlist=%zu, sample=%zu, seed=%llu, "
              "kernel=%s)\n",
              r.build_seconds, ivf.index().nlist(), r.ivf.train_sample,
              static_cast<unsigned long long>(r.ivf.seed),
              retrieval::QuantizedKernelName());

  size_t hits = 0;
  for (size_t i = 0; i < kRetrievalQueries; ++i) {
    const SearchResult got = ivf.TopK(queries[i], kRetrievalK, -1, 0);
    for (size_t id : got.ids) {
      if (std::find(truth[i].ids.begin(), truth[i].ids.end(), id) !=
          truth[i].ids.end()) {
        ++hits;
      }
    }
  }
  r.recall = static_cast<double>(hits) /
             static_cast<double>(kRetrievalQueries * kRetrievalK);

  const std::vector<LatencyStats> legs = MeasureInterleaved(
      kRetrievalQueries, kRetrievalRounds,
      {[&](size_t i) { exact_db.TopK(queries[i], kRetrievalK); },
       [&](size_t i) { ivf.TopK(queries[i], kRetrievalK, -1, 0); }});
  r.exact = legs[0];
  r.ivf_stats = legs[1];
  r.ivf_speedup = r.ivf_stats.median_qps / r.exact.median_qps;
  std::printf("  exact    %8.1f qps [%.1f, %.1f]  p50 %.0fus  p99 %.0fus  "
              "(flat O(N*d) scan)\n",
              r.exact.median_qps, r.exact.min_qps, r.exact.max_qps,
              r.exact.p50_micros, r.exact.p99_micros);
  std::printf("  ivf      %8.1f qps [%.1f, %.1f]  p50 %.0fus  p99 %.0fus  "
              "(nprobe=%zu, rerank=%zu, recall@%zu %.4f, %.1fx exact)\n",
              r.ivf_stats.median_qps, r.ivf_stats.min_qps,
              r.ivf_stats.max_qps, r.ivf_stats.p50_micros,
              r.ivf_stats.p99_micros, r.ivf.default_nprobe, r.ivf.rerank,
              kRetrievalK, r.recall, r.ivf_speedup);
  return r;
}

}  // namespace

int main() {
  std::printf("NeuTraj serving benchmark\n");
  std::printf("hardware_concurrency: %u\n",
              std::thread::hardware_concurrency());

  GeneratorConfig gen_cfg = PortoLikeConfig(0.4);
  gen_cfg.seed = 17;
  TrajectoryDataset data = GeneratePortoLike(gen_cfg);
  for (Trajectory& t : data.trajectories) {
    t = t.Downsampled(kMaxTrajLen);
  }
  data.RecomputeRegion();

  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = kEmbeddingDim;
  Grid grid(data.region.Inflated(50.0), 100.0);
  NeuTrajModel model(cfg, grid);
  Rng rng(29);
  model.InitializeWeights(&rng);

  EmbeddingDatabase db =
      EmbeddingDatabase::Build(model, data.trajectories, kServerThreads);
  std::printf("corpus: %zu trajectories (mean length %.1f, d=%zu)\n\n",
              data.size(), data.MeanLength(), db.dim());

  std::printf("[1/3] serving (batched: batch=%zu, wait=200us, %zu "
              "pipelined clients; %zu interleaved rounds)\n",
              kBurstSize, kConcurrentClients, kServingRounds);
  serve::MicroBatcher::Options unbatched;
  unbatched.threads = kServerThreads;
  unbatched.max_batch = 1;
  unbatched.max_wait_micros = 0;
  serve::MicroBatcher::Options batched;
  batched.threads = kServerThreads;
  batched.max_batch = kBurstSize;
  batched.max_wait_micros = 200;
  const std::vector<PhaseResult> serving =
      RunServingLegs(model, &db, data.trajectories,
                     {{"unbatched", unbatched, 1, /*pipelined=*/false, 0},
                      {"batched", batched, kConcurrentClients, true, 0},
                      {"trace-off", batched, kConcurrentClients, true, 0},
                      {"trace-1/64", batched, kConcurrentClients, true, 64}});
  const PhaseResult& base = serving[0];
  const PhaseResult& fast = serving[1];
  const PairedOverhead off = PairedRoundOverhead(fast, serving[2]);
  const PairedOverhead sampled = PairedRoundOverhead(serving[2], serving[3]);

  // Served-bytes identity: the same query answered with a sampled trace
  // context and with none must serialize to the same reply bytes.
  bool served_identical = true;
  {
    serve::QueryService service(model, &db, batched);
    obs::ReqTraceOptions topts;
    topts.sample_every = 1;
    service.ConfigureTracing(topts);
    serve::Server server(&service, serve::ServerOptions{});
    server.Start();
    serve::Client plain;
    serve::Client traced;
    plain.Connect("127.0.0.1", server.port());
    traced.Connect("127.0.0.1", server.port());
    traced.set_trace_context({0x5eed1234, /*sampled=*/true});
    for (size_t i = 0; i < 32; ++i) {
      const Trajectory& t = data.trajectories[i % data.trajectories.size()];
      const std::string a =
          serve::SerializeEncodeResponse({plain.Encode(t)});
      const std::string b =
          serve::SerializeEncodeResponse({traced.Encode(t)});
      if (a != b) served_identical = false;
    }
    plain.Close();
    traced.Close();
    server.Stop();
  }
  std::printf("  per-round medians: trace-off %.2f%% [%.2f, %.2f] vs "
              "batched, trace-1/64 %.2f%% [%.2f, %.2f] vs trace-off  served "
              "bytes identical: %s\n",
              off.median * 100.0, off.min * 100.0, off.max * 100.0,
              sampled.median * 100.0, sampled.min * 100.0,
              sampled.max * 100.0, served_identical ? "yes" : "NO");

  std::printf("[2/3] durable-ack insert overhead (WAL fsync before ack)\n");
  const InsertResult ins = RunInsertPhase(db);

  std::printf("[3/3] million-scale retrieval (%zu rows, d=%zu, %zu queries, "
              "k=%zu)\n",
              kRetrievalCorpus, kEmbeddingDim, kRetrievalQueries, kRetrievalK);
  const RetrievalResult ret = RunRetrievalPhase();

  const double speedup = fast.qps / base.qps;
  std::printf("\nbatched/unbatched throughput: %.2fx\n", speedup);
  std::printf("ivf/exact retrieval throughput: %.2fx at recall@%zu %.4f\n",
              ret.ivf_speedup, kRetrievalK, ret.recall);

  FILE* f = std::fopen("BENCH_serving.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serving.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f,
               "  \"corpus_size\": %zu,\n  \"embedding_dim\": %zu,\n"
               "  \"server_threads\": %zu,\n  \"serving_rounds\": %zu,\n"
               "  \"phases\": [\n",
               data.size(), db.dim(), kServerThreads, kServingRounds);
  for (size_t i = 0; i < serving.size(); ++i) {
    const PhaseResult& r = serving[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"clients\": %zu, \"requests\": %zu, "
                 "\"seconds\": %.4f, \"qps\": %.1f, \"min_qps\": %.1f, "
                 "\"max_qps\": %.1f, \"p50_micros\": %.1f, "
                 "\"p99_micros\": %.1f, \"mean_batch\": %.3f, "
                 "\"batches\": %llu}%s\n",
                 r.name.c_str(), r.clients, r.requests, r.seconds, r.qps,
                 r.min_qps, r.max_qps, r.p50_micros, r.p99_micros,
                 r.mean_batch,
                 static_cast<unsigned long long>(r.batches),
                 i + 1 < serving.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedup\": %.3f,\n", speedup);
  std::fprintf(f,
               "  \"tracing\": {\"off_qps\": %.1f, \"sampled64_qps\": %.1f, "
               "\"off_overhead\": %.4f, \"off_overhead_min\": %.4f, "
               "\"off_overhead_max\": %.4f, \"sampled64_overhead\": %.4f, "
               "\"sampled64_overhead_min\": %.4f, "
               "\"sampled64_overhead_max\": %.4f, "
               "\"overhead_estimator\": \"median over rounds of per-round "
               "qps ratios\", \"served_bytes_identical\": %s},\n",
               serving[2].qps, serving[3].qps, off.median, off.min, off.max,
               sampled.median, sampled.min, sampled.max,
               served_identical ? "true" : "false");
  std::fprintf(f,
               "  \"durable_inserts\": %zu,\n  \"insert_plain_qps\": %.1f,\n"
               "  \"insert_durable_qps\": %.1f,\n"
               "  \"durable_insert_overhead\": %.3f,\n",
               ins.inserts, ins.plain_qps, ins.durable_qps, ins.overhead);
  std::fprintf(f,
               "  \"retrieval\": {\n"
               "    \"corpus\": %zu,\n    \"dim\": %zu,\n"
               "    \"queries\": %zu,\n    \"k\": %zu,\n"
               "    \"nlist\": %zu,\n"
               "    \"nprobe\": %zu,\n    \"rerank\": %zu,\n"
               "    \"seed\": %llu,\n    \"kernel\": \"%s\",\n"
               "    \"build_seconds\": %.3f,\n    \"rounds\": %zu,\n",
               kRetrievalCorpus, kEmbeddingDim, kRetrievalQueries, kRetrievalK,
               ret.ivf.nlist, ret.ivf.default_nprobe, ret.ivf.rerank,
               static_cast<unsigned long long>(ret.ivf.seed),
               retrieval::QuantizedKernelName(), ret.build_seconds,
               kRetrievalRounds);
  const std::pair<const char*, const LatencyStats*> legs[] = {
      {"exact", &ret.exact}, {"ivf", &ret.ivf_stats}};
  for (const auto& [name, leg] : legs) {
    std::fprintf(f,
                 "    \"%s\": {\"median_qps\": %.1f, \"min_qps\": %.1f, "
                 "\"max_qps\": %.1f, \"p50_micros\": %.1f, "
                 "\"p99_micros\": %.1f},\n",
                 name, leg->median_qps, leg->min_qps, leg->max_qps,
                 leg->p50_micros, leg->p99_micros);
  }
  std::fprintf(f,
               "    \"recall_at_k\": %.4f,\n    \"ivf_speedup\": %.3f\n"
               "  }\n}\n",
               ret.recall, ret.ivf_speedup);
  std::fclose(f);
  std::printf("wrote BENCH_serving.json\n");

  const bool trace_ok = off.median <= 0.01 && sampled.median <= 0.02 &&
                        served_identical;
  const bool ok = speedup >= 2.0 && ret.ivf_speedup >= 10.0 &&
                  ret.recall >= 0.95 && trace_ok;
  if (!ok) {
    std::fprintf(stderr,
                 "GATE FAILED: batched %.2fx (need >= 2), ivf %.2fx (need "
                 ">= 10) at recall %.4f (need >= 0.95), trace off %.2f%% "
                 "(need <= 1%%), trace 1/64 %.2f%% (need <= 2%%), served "
                 "bytes identical %d\n",
                 speedup, ret.ivf_speedup, ret.recall, off.median * 100.0,
                 sampled.median * 100.0,
                 static_cast<int>(served_identical));
  }
  return ok ? 0 : 1;
}
