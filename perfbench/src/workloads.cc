#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench_util.h"
#include "core/embedding_db.h"
#include "core/model.h"
#include "core/similarity.h"
#include "core/trainer.h"
#include "data/generators.h"
#include "distance/measures.h"
#include "distance/pairwise.h"
#include "eval/metrics.h"
#include "layers.h"
#include "loadgen.h"
#include "nn/matrix.h"
#include "nn/workspace.h"
#include "retrieval/kernels.h"
#include "serving.h"
#include "store/durable_store.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using neutraj::DistanceMatrix;
using neutraj::EmbeddingDatabase;
using neutraj::NeuTrajConfig;
using neutraj::NeuTrajModel;
using neutraj::Trajectory;
using neutraj::TrajectoryDataset;
namespace nn = neutraj::nn;

// ---- Workload shapes -------------------------------------------------------
//
// Every size below is chosen so that one run of a workload finishes in well
// under a minute on 4 vCPUs (a gate takes dozens of runs) while keeping the
// layer each workload is for the dominant cost.

constexpr size_t kEmbeddingDim = 128;  // The paper's d.
constexpr uint64_t kModelSeed = 2019;
// The serving corpus and the recall query set do not depend on --seed, so
// recall_at_10 repeats exactly across runs; the seed drives the traffic.
constexpr uint64_t kCorpusSeed = 1901;
constexpr uint64_t kRecallSeed = 77;
constexpr size_t kCorpusRows = 10000;
constexpr size_t kQueryPool = 4096;
constexpr size_t kIvfNlist = 128;  // ~sqrt(rows); default nprobe 8.
constexpr size_t kIvfRerank = neutraj::retrieval::IvfIndex::Options{}.rerank;
constexpr uint32_t kK = 10;
constexpr size_t kRecallQueries = 200;
constexpr double kRecallFloor = 0.8;
// setup_s is the median of this many set-ups: more where one is cheap.
constexpr size_t kQuerySetups = 3;   // ~2 s each.
constexpr size_t kIngestSetups = 7;  // ~0.25 s each.
constexpr size_t kTrainSetups = 5;   // ~0.2 s each.
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kTraceBlocks = 8;  // Alternating timed/untimed stretches.

// query-short: one fixed TopK rate far below the knee, then saturating
// bursts for the throughput.
constexpr double kQueryRate = 300.0;
constexpr size_t kBursts = 5;
constexpr size_t kQueryBurstOps = 1000;
constexpr double kCapacityP99LimitMs = 100.0;
constexpr double kCapacityMaxRate = 20000.0;

// ingest-mixed: a fixed insert count (three compactions at the default
// compact_every = 1024), split 50/50 with TopK at the same rate, over a
// smaller corpus than query-short's so that a compaction (a full snapshot
// rewrite) delays a small share of the inserts behind it. Then saturating
// bursts that stay short of the next compaction: the WAL holds 3100 % 1024
// = 28 records after the fixed-rate phase and 28 + 5 * 190 = 978 after the
// bursts.
constexpr size_t kIngestRows = 2000;
constexpr size_t kIngestNlist = 45;  // ~sqrt(rows).
constexpr size_t kCompactEvery = 1024;  // DurableStore's default.
constexpr size_t kIngestInserts = 3100;
constexpr size_t kBurstInserts = 190;

// train-paper.
constexpr uint64_t kTrainDataSeed = 4242;
constexpr size_t kSeedPool = 100;
constexpr size_t kEvalRows = 500;     // HR@10 candidates (fixed).
constexpr size_t kEncodeRows = 1000;  // Encode latency/throughput (seeded).
// The traced run's serving pass: TopK and Insert at kServeRate each for
// kServeSeconds (kTraceBlocks blocks of 24 requests of each kind).
constexpr double kServeRate = 40.0;
constexpr double kServeSeconds = 4.8;
constexpr size_t kServeInserts = 192;
constexpr size_t kEpochs = 3;
constexpr size_t kSamplingNum = 3;
constexpr size_t kTrainThreads = 2;
constexpr size_t kHrQueries = 40;

const std::vector<std::string>& EndToEndNames() {
  static const std::vector<std::string> names = {
      "setup_s", "rss_mb", "ops_per_cpu_s",
      "quality_at_10"};
  return names;
}

const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> names = {
      "serve.protocol_us",
      "serve.batcher_wait_us",
      "serve.batch_size_mean",
      "serve.unattributed_ms",
      "nn.embed_us",
      "nn.embed_ns_per_point",
      "nn.backward_us",
      "nn.adam_step_us",
      "nn.matvec_gflops",
      "core.sample_us",
      "core.db_insert_us",
      "core.exact_topk_ms",
      "retrieval.probe_us",
      "retrieval.rerank_us",
      "retrieval.candidates_per_query",
      "retrieval.rerank_yield",
      "retrieval.notify_insert_us",
      "retrieval.build_s",
      "store.insert_us",
      "store.compact_ms",
      "store.fsyncs_per_insert",
      "store.bytes_written_per_insert",
      "store.load_s",
      "distance.seed_matrix_s",
      "obs.trace_overhead_frac",
      "gen.late_p99_ms"};
  return names;
}

/// Collects metrics, checks, phases and details, then prints them.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    metrics_[name] = {value, unit};
  }

  void Check(const std::string& name, bool pass, const std::string& detail) {
    ++attempted_;
    if (!pass) {
      ++failed_;
      correct_ = false;
    }
    checks_.push_back(JsonObject()
                          .Str("name", name)
                          .Bool("pass", pass)
                          .Str("detail", detail)
                          .str());
  }

  /// Operations that count towards error_frac.
  void Ops(size_t attempted, size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Records a phase's generator report; its operations count towards
  /// error_frac.
  void AddCountedPhase(const std::string& name, const Phase& ph) {
    const PhaseReport p =
        SummarizePhase(name, ph.outcomes, [&ph](size_t i) { return ph.ok[i]; });
    phases_.push_back(JsonObject()
                          .Str("phase", p.name)
                          .Int("sent", static_cast<int64_t>(p.sent))
                          .Int("succeeded", static_cast<int64_t>(p.succeeded))
                          .Int("failed", static_cast<int64_t>(p.failed))
                          .Num("gen_late_p99_ms", p.late_p99_ms)
                          .Bool("generator_behind", p.generator_behind)
                          .str());
    if (p.generator_behind) {
      std::printf("warning: generator fell behind its schedule in phase %s "
                  "(late p99 %.3f ms)\n",
                  p.name.c_str(), p.late_p99_ms);
    }
    Ops(ph.outcomes.size(), ph.failed());
  }

  JsonObject& detail() { return detail_; }

  void Print(const Args& a, const CpuSample& cpu0) {
    const std::vector<std::string>& names =
        a.trace ? PerLayerNames() : EndToEndNames();
    for (const std::string& n : names) {
      if (metrics_.count(n) == 0) {
        throw std::logic_error("metric " + n + " was not measured");
      }
    }
    const double steal = StealShare(cpu0, ReadCpu());
    std::printf("env: %s\n",
                JsonObject()
                    .Str("workload", a.workload)
                    .Int("seed", static_cast<int64_t>(a.seed))
                    .Num("seconds", a.seconds)
                    .Bool("trace", a.trace)
                    .Int("nproc", sysconf(_SC_NPROCESSORS_ONLN))
                    .Str("int8_kernel", neutraj::retrieval::QuantizedKernelName())
                    .Str("build_type", PERFBENCH_BUILD_TYPE)
                    .Str("git_sha", a.git_sha)
                    .Str("source_sha256", a.source_sha256)
                    .Num("steal_share", steal)
                    .str()
                    .c_str());
    std::printf("phases: %s\n", JsonArray(phases_).c_str());
    std::printf("checks: %s\n", JsonArray(checks_).c_str());
    detail_.Num("error_frac", attempted_ == 0
                                  ? 0.0
                                  : static_cast<double>(failed_) /
                                        static_cast<double>(attempted_));
    std::printf("detail: %s\n", detail_.str().c_str());
    JsonObject metrics;
    for (const std::string& n : names) {
      const auto& [value, unit] = metrics_.at(n);
      metrics.Raw(n, JsonObject().Num("value", value).Str("unit", unit).str());
    }
    std::printf("%s\n", JsonObject()
                            .Bool("correct", correct_)
                            .Int("attempted", static_cast<int64_t>(attempted_))
                            .Int("failed", static_cast<int64_t>(failed_))
                            .Raw("metrics", metrics.str())
                            .str()
                            .c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> checks_;
  std::vector<std::string> phases_;
  JsonObject detail_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  bool correct_ = true;
};

std::string Path(const Args& a, const std::string& name) {
  return (fs::path(a.dir) / name).string();
}

NeuTrajConfig ModelConfig() {
  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = kEmbeddingDim;
  return cfg;
}

/// Taxi-like trajectories of at most 20 points (mean ~19.9).
TrajectoryDataset ShortDataset(size_t n, uint64_t seed) {
  neutraj::GeneratorConfig g = neutraj::PortoLikeConfig(1.0);
  g.num_trajectories = n;
  g.max_points = 20;
  g.min_points = 16;
  g.seed = seed;
  return neutraj::GeneratePortoLike(g);
}

/// Walks of at most 100 points (mean ~80): the paper's trajectory lengths.
/// No popular routes, so the length mix barely moves with the seed.
TrajectoryDataset LongDataset(size_t n, uint64_t seed) {
  neutraj::GeneratorConfig g = neutraj::GeolifeLikeConfig(1.0);
  g.num_trajectories = n;
  g.popular_fraction = 0.0;
  g.max_points = 100;
  g.min_points = 30;
  g.min_hops = 10;
  g.max_hops = 22;
  g.seed = seed;
  return neutraj::GenerateGeolifeLike(g);
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void ReportLatency(JsonObject* d, const std::string& prefix,
                   const std::vector<double>& ms) {
  const Tail tail = TailPercentile(ms);
  d->Num(prefix + "_p50_ms", Median(ms))
      .Num(prefix + "_p99_ms", tail.value)
      .Num(prefix + "_tail_quantile", tail.q)
      .Int(prefix + "_samples", static_cast<int64_t>(tail.n))
      .Raw(prefix + "_quantiles_ms",
           JsonObject()
               .Num("p10", Quantile(ms, 0.10))
               .Num("p25", Quantile(ms, 0.25))
               .Num("p75", Quantile(ms, 0.75))
               .Num("p90", Quantile(ms, 0.90))
               .Num("p95", Quantile(ms, 0.95))
               .Num("p999", Quantile(ms, 0.999))
               .Num("max", Quantile(ms, 1.0))
               .str());
  if (tail.fell_back) {
    std::printf("note: %s has %zu samples; reporting p%.0f (%zu beyond) "
                "instead of p99\n",
                prefix.c_str(), tail.n, tail.q * 100.0, tail.beyond);
  }
}

/// Median latency of the successful requests of `kind` intended in each
/// whole second of `phases` (run back to back), as a JSON array.
std::string PerSecondMedians(const std::vector<const Phase*>& phases,
                             OpKind kind) {
  std::vector<std::vector<double>> by_second;
  double offset = 0.0;
  for (const Phase* ph : phases) {
    double end = 0.0;
    for (size_t i = 0; i < ph->outcomes.size(); ++i) {
      const Outcome& o = ph->outcomes[i];
      end = std::max(end, o.intended_s);
      if (ph->kinds[i] != kind || !ph->ok[i]) continue;
      const auto sec = static_cast<size_t>(offset + o.intended_s);
      if (by_second.size() <= sec) by_second.resize(sec + 1);
      by_second[sec].push_back(o.LatencyMs());
    }
    offset += end;
  }
  std::vector<std::string> items;
  for (const std::vector<double>& v : by_second) {
    items.push_back(JsonNumber(Median(v)));
  }
  return JsonArray(items);
}

std::string JsonNumbers(const std::vector<double>& v) {
  std::vector<std::string> items;
  for (double x : v) items.push_back(JsonNumber(x));
  return JsonArray(items);
}

/// Saturating bursts of one kind of request, each timed by the wall clock
/// and by the process's CPU time. Time stolen from the VM stretches the
/// first and not the second, so the CPU-time rate is the steady one on a
/// shared host.
struct Bursts {
  std::vector<Phase> phases;
  std::vector<double> per_s;      ///< Replies per wall-clock second.
  std::vector<double> per_cpu_s;  ///< Replies per CPU-second of the process.
};

Bursts RunBursts(OpenLoopClient* client, const Traffic& burst,
                 uint64_t* next_id, OpKind kind, Report* rep) {
  Bursts b;
  for (size_t i = 0; i < kBursts; ++i) {
    const double cpu0 = ProcessCpuSeconds();
    Phase ph = RunPhase(client, burst, next_id);
    const double cpu_s = ProcessCpuSeconds() - cpu0;
    rep->AddCountedPhase("burst-" + std::to_string(i), ph);
    const auto replies = static_cast<double>(ph.LatenciesMs(kind).size());
    b.per_s.push_back(CompletedRate(ph, kind));
    b.per_cpu_s.push_back(replies / cpu_s);
    b.phases.push_back(std::move(ph));
  }
  return b;
}

/// Brings a serving stack up `setups` times and keeps the last one.
struct ServingRun {
  std::unique_ptr<ServingStack> stack;
  std::vector<double> setup_s, setup_cpu_s, load_s, build_s;
};

ServingRun BringUp(const NeuTrajModel& model, const StackOptions& so,
                   size_t setups) {
  ServingRun r;
  for (size_t cycle = 0; cycle < setups; ++cycle) {
    r.stack.reset();
    r.stack = std::make_unique<ServingStack>(model, so, cycle);
    r.setup_s.push_back(r.stack->setup_s());
    r.setup_cpu_s.push_back(r.stack->setup_cpu_s());
    r.load_s.push_back(r.stack->load_s());
    r.build_s.push_back(r.stack->build_s());
  }
  return r;
}

/// The measured phase of a traced run, split into alternating stretches
/// with the retrieval timing wrapper on and off, so the tracing overhead is
/// measured A/B under the same conditions.
struct TracedPhase {
  std::vector<Phase> on, off;
  double batch_size_mean = 0.0;
  /// The service's registry around the phase.
  neutraj::obs::MetricsSnapshot before, after;
};

TracedPhase RunTraced(OpenLoopClient* client, ServingStack* stack,
                      const Traffic& t, uint64_t* next_id, Report* rep) {
  TracedPhase tp;
  Traffic block = t;
  block.seconds = t.seconds / static_cast<double>(kTraceBlocks);
  const neutraj::serve::MicroBatcher::Stats s0 =
      stack->service().batcher().stats();
  tp.before = stack->service().registry().Snapshot();
  for (size_t b = 0; b < kTraceBlocks; ++b) {
    const bool on = b % 2 == 0;
    stack->timed()->set_timing(on);
    Phase ph = RunPhase(client, block, next_id);
    rep->AddCountedPhase(std::string(on ? "traced-" : "untraced-") +
                             std::to_string(b / 2),
                         ph);
    (on ? tp.on : tp.off).push_back(std::move(ph));
  }
  stack->timed()->set_timing(true);
  tp.after = stack->service().registry().Snapshot();
  const neutraj::serve::MicroBatcher::Stats s1 =
      stack->service().batcher().stats();
  tp.batch_size_mean = static_cast<double>(s1.requests - s0.requests) /
                       static_cast<double>(std::max<uint64_t>(
                           1, s1.batches - s0.batches));
  return tp;
}

/// Served distances must be bit-identical to the exact distance between
/// the query's embedding and the stored row (the IVF re-rank contract).
void CheckServedScores(const NeuTrajModel& model, EmbeddingDatabase& db,
                       const std::vector<const Phase*>& phases,
                       const std::vector<Trajectory>& queries, Report* rep) {
  size_t checked = 0;
  size_t mismatched = 0;
  for (const Phase* ph : phases) {
    for (size_t i = 0; i < ph->outcomes.size() && checked < 32; ++i) {
      if (ph->kinds[i] != OpKind::kTopK || !ph->ok[i]) continue;
      const nn::Vector e = model.Embed(queries[ph->items[i]]);
      for (size_t j = 0; j < ph->topk_ids[i].size(); ++j) {
        const double exact = nn::L2Distance(e, db.at(ph->topk_ids[i][j]));
        if (exact != ph->topk_dists[i][j]) ++mismatched;
      }
      ++checked;
    }
  }
  rep->Check("served_scores_exact", checked > 0 && mismatched == 0,
             std::to_string(checked) + " replies, " +
                 std::to_string(mismatched) + " mismatched distances");
}

void CheckRecall(const RecallPass& first, const RecallPass& second,
                 Report* rep) {
  rep->Ops(first.served.size() + second.served.size(),
           first.failed + second.failed);
  rep->Check("recall_floor", first.recall >= kRecallFloor,
             "recall@10 " + Fmt("%.4f", first.recall) + " (floor " +
                 Fmt("%.2f", kRecallFloor) + ")");
  rep->Check("recall_repeats",
             first.served == second.served && first.recall == second.recall,
             "two passes over the fixed query set");
}

/// Per-layer metrics of a traced serving phase. `encode_mix` is the
/// workload's request trajectories (the length mix nn.embed_us is taken
/// at). The batcher's straggler wait and the probe/re-rank split are the
/// service's own telemetry over the phase; the whole backend call and
/// NotifyInsert are timed by the TimedBackend. Ends by timing NotifyInsert
/// through the backend when the phase had no inserts; that adds rows the
/// database does not have, so the stack must serve no TopK afterwards.
void ServingLayers(const NeuTrajModel& model, ServingStack* stack,
                   const TracedPhase& tp, const Traffic& t,
                   const std::vector<Trajectory>& encode_mix,
                   double compact_ms, size_t rerank, Report* rep) {
  std::vector<double> on_topk, off_topk, on_insert, late;
  std::vector<std::string> frames;
  for (const Phase& ph : tp.on) {
    for (double v : ph.LatenciesMs(OpKind::kTopK)) on_topk.push_back(v);
    for (double v : ph.LatenciesMs(OpKind::kInsert)) on_insert.push_back(v);
    for (size_t i = 0; i < ph.frames.size() && frames.size() < 256; ++i) {
      frames.push_back(ph.frames[i]);
    }
  }
  for (const Phase& ph : tp.off) {
    for (double v : ph.LatenciesMs(OpKind::kTopK)) off_topk.push_back(v);
  }
  for (const auto* side : {&tp.on, &tp.off}) {
    for (const Phase& ph : *side) {
      for (const Outcome& o : ph.outcomes) late.push_back(o.LateMs());
    }
  }

  const EmbedProbe embed = ProbeEmbed(model, encode_mix);
  const double protocol_us = ProbeProtocolUs(frames, t.k);
  const HistogramDelta wait =
      HistogramDeltaOf(tp.before, tp.after, "serve/batcher/wait_us");
  const HistogramDelta probe =
      HistogramDeltaOf(tp.before, tp.after, "retrieval/probe_us");
  const HistogramDelta rerank_h =
      HistogramDeltaOf(tp.before, tp.after, "retrieval/rerank_us");
  const uint64_t queries =
      CounterDeltaOf(tp.before, tp.after, "retrieval/queries");
  const uint64_t scanned =
      CounterDeltaOf(tp.before, tp.after, "retrieval/candidates_scanned");
  if (wait.count == 0 || probe.count == 0 || queries == 0) {
    throw std::runtime_error("traced phase recorded no batcher or IVF work");
  }

  TimedBackend* timed = stack->timed();
  if (timed->samples().notify_us.empty()) {
    EmbeddingDatabase& db = stack->db();
    const size_t base = db.size();
    for (size_t i = 0; i < 64; ++i) timed->NotifyInsert(base + i, db.at(i));
  }
  const TimedBackend::Samples s = timed->samples();
  const double retrieval_us = Median(s.topk_us);
  const double wait_us = wait.PercentileUs(0.5);
  const double candidates =
      static_cast<double>(scanned) / static_cast<double>(queries);
  // IvfIndex::Candidates hands max(k, rerank) of the scanned postings to
  // the exact re-rank.
  const double reranked =
      std::min(static_cast<double>(std::max<size_t>(t.k, rerank)), candidates);

  const double p50_on = Median(on_topk);
  const double p50_off = Median(off_topk);
  const double layer_sum_ms =
      (protocol_us + wait_us + embed.embed_us + retrieval_us) / 1e3;
  const double unattributed_ms = p50_on - layer_sum_ms;

  rep->Metric("serve.protocol_us", protocol_us, "us");
  rep->Metric("serve.batcher_wait_us", wait_us, "us");
  rep->Metric("serve.batch_size_mean", tp.batch_size_mean, "count");
  rep->Metric("serve.unattributed_ms", unattributed_ms, "ms");
  rep->Metric("nn.embed_us", embed.embed_us, "us");
  rep->Metric("nn.embed_ns_per_point", embed.ns_per_point, "ns");
  rep->Metric("retrieval.probe_us", probe.PercentileUs(0.5), "us");
  rep->Metric("retrieval.rerank_us", rerank_h.PercentileUs(0.5), "us");
  rep->Metric("retrieval.candidates_per_query", candidates, "count");
  rep->Metric("retrieval.rerank_yield", t.k / reranked, "ratio");
  rep->Metric("retrieval.notify_insert_us", Median(s.notify_us), "us");
  rep->Metric("obs.trace_overhead_frac", p50_on / p50_off - 1.0, "ratio");
  rep->Metric("gen.late_p99_ms", Quantile(late, 0.99), "ms");

  // Who owns the tail: the p99 - p50 excess of TopK split into the parts
  // measured per request or per batch (the backend call, the straggler
  // wait) and the rest.
  const double tail_ms = Quantile(on_topk, 0.99) - p50_on;
  const double retrieval_tail_ms =
      (Quantile(s.topk_us, 0.99) - retrieval_us) / 1e3;
  const double wait_tail_ms = (wait.PercentileUs(0.99) - wait_us) / 1e3;
  const double rest_ms = tail_ms - retrieval_tail_ms - wait_tail_ms;
  std::string owner = "serve.unattributed_ms";
  if (retrieval_tail_ms > rest_ms && retrieval_tail_ms >= wait_tail_ms) {
    owner = "retrieval";
  } else if (wait_tail_ms > rest_ms) {
    owner = "serve.batcher_wait_us";
  }
  JsonObject rec;
  rec.Num("traced_topk_p50_ms", p50_on)
      .Num("untraced_topk_p50_ms", p50_off)
      .Num("layer_sum_ms", layer_sum_ms)
      .Num("retrieval_call_us", retrieval_us)
      .Num("unattributed_ms", unattributed_ms)
      .Num("reconciliation_gap_ms", layer_sum_ms + unattributed_ms - p50_off)
      .Num("trace_overhead_frac", p50_on / p50_off - 1.0)
      .Num("traced_topk_p99_ms", Quantile(on_topk, 0.99))
      .Num("topk_tail_excess_ms", tail_ms)
      .Num("retrieval_tail_excess_ms", retrieval_tail_ms)
      .Num("batcher_wait_tail_excess_ms", wait_tail_ms)
      .Num("unattributed_tail_excess_ms", rest_ms)
      .Str("topk_p99_owner", owner);
  if (!on_insert.empty()) {
    const double insert_tail_ms =
        Quantile(on_insert, 0.99) - Median(on_insert);
    rec.Num("traced_insert_p50_ms", Median(on_insert))
        .Num("traced_insert_p99_ms", Quantile(on_insert, 0.99))
        .Str("insert_p99_owner", insert_tail_ms >= 0.5 * compact_ms
                                     ? "store.compact_ms"
                                     : "serve.unattributed_ms");
  }
  rep->detail().Raw("reconcile", rec.str());
}

void StoreLayers(const StoreProbe& p, double load_s, double fsyncs_per_insert,
                 double bytes_per_insert, Report* rep) {
  rep->Metric("store.insert_us", p.insert_us, "us");
  rep->Metric("store.compact_ms", p.compact_ms, "ms");
  rep->Metric("store.fsyncs_per_insert", fsyncs_per_insert, "count");
  rep->Metric("store.bytes_written_per_insert", bytes_per_insert, "bytes");
  rep->Metric("store.load_s", load_s, "s");
}

/// nn.backward_us, nn.adam_step_us and nn.matvec_gflops. `scratch` is a
/// model nothing else uses: the Adam probe changes its weights.
void ModelLayers(NeuTrajModel* scratch, const std::vector<Trajectory>& mix,
                 Report* rep) {
  rep->Metric("nn.backward_us", ProbeBackwardUs(scratch, mix), "us");
  rep->Metric("nn.adam_step_us", ProbeAdamStepUs(scratch), "us");
  rep->Metric("nn.matvec_gflops", ProbeMatVecGflops(kEmbeddingDim), "GFLOP/s");
}

/// core.* probes. `seed_dists` is a seed pool's distance matrix (the
/// sampler's input).
void CoreLayers(const DistanceMatrix& seed_dists, const NeuTrajModel& model,
                const EmbeddingDatabase& db,
                const std::vector<Trajectory>& queries, uint64_t seed,
                Report* rep) {
  NeuTrajConfig cfg = ModelConfig();
  const neutraj::SimilarityMatrix s(seed_dists, cfg);
  rep->Metric("core.sample_us", ProbeSampleUs(s, cfg.sampling_num, seed),
              "us");
  rep->Metric("core.db_insert_us", ProbeDbInsertUs(db.embeddings()), "us");
  std::vector<nn::Vector> q;
  for (size_t i = 0; i < std::min<size_t>(20, queries.size()); ++i) {
    q.push_back(model.Embed(queries[i]));
  }
  rep->Metric("core.exact_topk_ms", ProbeExactTopKMs(db, q, kK), "ms");
}

/// Seed-pool Fréchet matrix of the first kSeedPool trajectories, timed.
DistanceMatrix TimedSeedMatrix(const std::vector<Trajectory>& trajs,
                               double* seconds) {
  const std::vector<Trajectory> pool(
      trajs.begin(),
      trajs.begin() + static_cast<std::ptrdiff_t>(
                          std::min(kSeedPool, trajs.size())));
  const Clock::time_point t0 = Clock::now();
  DistanceMatrix dm =
      neutraj::ComputePairwiseDistances(pool, neutraj::Measure::kFrechet);
  *seconds = SecondsSince(t0);
  return dm;
}

// ---- query-short -----------------------------------------------------------

void RunQueryShort(const Args& a, Report* rep) {
  const NeuTrajModel model = NeuTrajModel::Load(Path(a, "model.ntj"));
  const std::vector<Trajectory> queries =
      ShortDataset(kQueryPool, 1000 + a.seed).trajectories;
  const std::vector<Trajectory> recall_queries =
      ShortDataset(kRecallQueries, kRecallSeed).trajectories;
  const std::vector<Trajectory> no_inserts;

  StackOptions so;
  so.snapshot_path = Path(a, "snapshot.embdb");
  so.work_dir = Path(a, "work");
  so.ivf.nlist = kIvfNlist;
  so.traced = a.trace;
  ServingRun sr = BringUp(model, so, kQuerySetups);
  ServingStack* st = sr.stack.get();

  const RecallPass recall1 = MeasureRecall(model, st, recall_queries, kK);
  OpenLoopClient client("127.0.0.1", st->port(),
                        {kTopKConnections, kInsertConnections});
  size_t query_cursor = 0;
  size_t insert_cursor = 0;
  uint64_t next_id = st->db().size();
  Traffic t;
  t.queries = &queries;
  t.inserts = &no_inserts;
  t.query_cursor = &query_cursor;
  t.insert_cursor = &insert_cursor;
  t.topk_rate = kQueryRate;
  t.seconds = kWarmupSeconds;
  t.k = kK;
  rep->AddCountedPhase("warmup", RunPhase(&client, t, &next_id));
  t.seconds = a.seconds;

  JsonObject& d = rep->detail();
  d.Num("topk_rate_per_s", kQueryRate)
      .Int("corpus_rows", static_cast<int64_t>(st->db().size()))
      .Int("ivf_nlist", static_cast<int64_t>(kIvfNlist));
  if (!a.trace) {
    const Phase m = RunPhase(&client, t, &next_id);
    rep->AddCountedPhase("fixed-rate", m);
    const std::vector<double> lat = m.LatenciesMs(OpKind::kTopK);
    ReportLatency(&d, "topk", lat);

    // Saturating throughput: every connection kept busy; the median of
    // kBursts bursts.
    Traffic b = t;
    b.seconds = -1.0;
    b.burst_topk = kQueryBurstOps;
    const Bursts bursts = RunBursts(&client, b, &next_id, OpKind::kTopK, rep);
    d.Num("throughput_per_s", Median(bursts.per_s))
        .Raw("burst_topk_per_s", JsonNumbers(bursts.per_s))
        .Raw("burst_topk_per_cpu_s", JsonNumbers(bursts.per_cpu_s));

    // The saturating bursts bound capacity from above; the ladder starts
    // below them so that it reaches the knee in two or three rungs.
    const CapacityResult cap =
        SearchServingCapacity(&client, t, 0.7 * Median(bursts.per_s),
                              kCapacityMaxRate, kCapacityP99LimitMs);
    std::vector<std::string> rungs;
    for (const Rung& r : cap.rungs) {
      rungs.push_back(JsonObject()
                          .Num("rate", r.rate)
                          .Bool("pass", r.pass)
                          .Num("p99_ms", r.p99_ms)
                          .Bool("backlog_growing", r.backlog_growing)
                          .Int("sent", static_cast<int64_t>(r.sent))
                          .Int("failed", static_cast<int64_t>(r.failed))
                          .Num("gen_late_p99_ms", r.late_p99_ms)
                          .Num("achieved_per_s", r.achieved)
                          .str());
    }
    d.Num("capacity_per_s", cap.capacity)
        .Num("capacity_achieved_per_s", cap.achieved)
        .Num("capacity_p99_limit_ms", kCapacityP99LimitMs)
        .Raw("capacity_rungs", JsonArray(rungs));
    rep->Check("capacity_found", cap.capacity > 0.0,
               "highest passing rate " + Fmt("%.1f", cap.capacity));

    const RecallPass recall2 = MeasureRecall(model, st, recall_queries, kK);
    CheckRecall(recall1, recall2, rep);
    CheckServedScores(model, st->db(), {&m}, queries, rep);
    d.Num("recall_at_10", recall1.recall);

    d.Num("setup_wall_s", Median(sr.setup_s));
    rep->Metric("setup_s", Median(sr.setup_cpu_s), "s");
    rep->Metric("rss_mb", PeakRssMb(), "MB");
    rep->Metric("ops_per_cpu_s", Median(bursts.per_cpu_s), "1/s");
    rep->Metric("quality_at_10", recall1.recall, "ratio");
    return;
  }

  const TracedPhase tp = RunTraced(&client, st, t, &next_id, rep);
  const RecallPass recall2 = MeasureRecall(model, st, recall_queries, kK);
  CheckRecall(recall1, recall2, rep);
  std::vector<const Phase*> phases;
  for (const Phase& ph : tp.on) phases.push_back(&ph);
  CheckServedScores(model, st->db(), phases, queries, rep);

  const StoreProbe sp =
      ProbeStore(st->db().embeddings(), Path(a, "store-probe"));
  ServingLayers(model, st, tp, t, queries, sp.compact_ms, kIvfRerank, rep);
  StoreLayers(sp, Median(sr.load_s), sp.fsyncs_per_insert,
              sp.bytes_written_per_insert, rep);
  rep->Metric("retrieval.build_s", Median(sr.build_s), "s");
  double seed_matrix_s = 0.0;
  const DistanceMatrix dm = TimedSeedMatrix(queries, &seed_matrix_s);
  rep->Metric("distance.seed_matrix_s", seed_matrix_s, "s");
  CoreLayers(dm, model, st->db(), queries, a.seed, rep);
  NeuTrajModel scratch = NeuTrajModel::Load(Path(a, "model.ntj"));
  ModelLayers(&scratch, queries, rep);
}

// ---- ingest-mixed ----------------------------------------------------------

void RunIngestMixed(const Args& a, Report* rep) {
  const NeuTrajModel model = NeuTrajModel::Load(Path(a, "model.ntj"));
  const std::vector<Trajectory> queries =
      ShortDataset(kQueryPool, 1000 + a.seed).trajectories;
  const std::vector<Trajectory> inserts =
      ShortDataset(kIngestInserts + kBursts * kBurstInserts, 2000 + a.seed)
          .trajectories;
  const std::vector<Trajectory> recall_queries =
      ShortDataset(kRecallQueries, kRecallSeed).trajectories;

  StackOptions so;
  so.store_dir = Path(a, "store");
  so.work_dir = Path(a, "work");
  so.ivf.nlist = kIngestNlist;
  so.traced = a.trace;
  ServingRun sr = BringUp(model, so, kIngestSetups);
  ServingStack* st = sr.stack.get();

  // Recall is measured on the starting corpus, before any insert.
  const RecallPass recall1 = MeasureRecall(model, st, recall_queries, kK);
  const RecallPass recall2 = MeasureRecall(model, st, recall_queries, kK);
  CheckRecall(recall1, recall2, rep);

  const size_t start_rows = st->db().size();
  uint64_t next_id = start_rows;
  OpenLoopClient client("127.0.0.1", st->port(),
                        {kTopKConnections, kInsertConnections});
  size_t query_cursor = 0;
  size_t insert_cursor = 0;
  const double rate = static_cast<double>(kIngestInserts) / a.seconds;
  Traffic t;
  t.queries = &queries;
  t.inserts = &inserts;
  t.query_cursor = &query_cursor;
  t.insert_cursor = &insert_cursor;
  t.topk_rate = rate;
  t.seconds = kWarmupSeconds;
  t.k = kK;
  rep->AddCountedPhase("warmup", RunPhase(&client, t, &next_id));
  t.insert_rate = rate;
  t.seconds = a.seconds;

  JsonObject& d = rep->detail();
  d.Num("topk_rate_per_s", rate)
      .Num("insert_rate_per_s", rate)
      .Int("inserts", static_cast<int64_t>(kIngestInserts))
      .Int("corpus_rows_at_start", static_cast<int64_t>(start_rows))
      .Str("flush_policy",
           "WAL fsync before every ack; snapshot compaction inline in "
           "Insert every compact_every = 1024 records");

  std::vector<const Phase*> fixed_rate;  // The latencies come from these.
  Phase m;
  TracedPhase tp;
  if (!a.trace) {
    m = RunPhase(&client, t, &next_id);
    rep->AddCountedPhase("fixed-rate", m);
    fixed_rate.push_back(&m);
  } else {
    st->files()->Reset();
    tp = RunTraced(&client, st, t, &next_id, rep);
    for (const Phase& ph : tp.on) fixed_rate.push_back(&ph);
    for (const Phase& ph : tp.off) fixed_rate.push_back(&ph);
  }
  std::vector<const Phase*> measured = fixed_rate;
  // The traced run's stretches round their counts, so the inserts sent
  // may differ from kIngestInserts by a few.
  const size_t wal_after_phase = st->store()->wal_records();
  rep->Check("three_compactions",
             insert_cursor / kCompactEvery == 3 &&
                 wal_after_phase == insert_cursor % kCompactEvery,
             "WAL holds " + std::to_string(wal_after_phase) +
                 " records after " + std::to_string(insert_cursor) +
                 " inserts");

  // Saturating throughput of the single insert connection, over kBursts
  // insert bursts, none of which compacts.
  Bursts bursts;
  if (!a.trace) {
    Traffic b = t;
    b.seconds = -1.0;
    b.burst_inserts = kBurstInserts;
    bursts = RunBursts(&client, b, &next_id, OpKind::kInsert, rep);
    for (const Phase& ph : bursts.phases) measured.push_back(&ph);
    d.Num("throughput_per_s", Median(bursts.per_s))
        .Raw("burst_insert_per_s", JsonNumbers(bursts.per_s))
        .Raw("burst_insert_per_cpu_s", JsonNumbers(bursts.per_cpu_s));
    const size_t wal_after_bursts = st->store()->wal_records();
    rep->Check("bursts_do_not_compact",
               wal_after_bursts ==
                   wal_after_phase + kBursts * kBurstInserts,
               "WAL holds " + std::to_string(wal_after_bursts) +
                   " records after the bursts");
  }

  // Every acknowledged insert is in the corpus, in ack order, with the
  // embedding the model gives its trajectory.
  std::vector<std::pair<size_t, uint64_t>> acks;
  for (const Phase* ph : measured) {
    acks.insert(acks.end(), ph->acks.begin(), ph->acks.end());
  }
  std::sort(acks.begin(), acks.end(),
            [](const auto& x, const auto& y) { return x.second < y.second; });
  EmbeddingDatabase& db = st->db();
  rep->Check("corpus_size", db.size() == start_rows + acks.size(),
             std::to_string(db.size()) + " rows = " +
                 std::to_string(start_rows) + " + " +
                 std::to_string(acks.size()) + " acks");
  bool ordered = true;
  for (size_t i = 0; i < acks.size(); ++i) {
    if (acks[i].second != start_rows + i || acks[i].first != i) ordered = false;
  }
  rep->Check("acks_in_order", ordered, "ids dense and in arrival order");
  size_t mismatched = 0;
  const size_t stride = std::max<size_t>(1, acks.size() / 256);
  for (size_t i = 0; i < acks.size(); i += stride) {
    if (model.Embed(inserts[acks[i].first]) != db.at(acks[i].second)) {
      ++mismatched;
    }
  }
  rep->Check("acked_rows_match", mismatched == 0,
             std::to_string(mismatched) + " sampled rows differ");
  CheckServedScores(model, db, measured, queries, rep);

  std::vector<double> topk_ms, insert_ms;
  for (const Phase* ph : fixed_rate) {
    for (double v : ph->LatenciesMs(OpKind::kTopK)) topk_ms.push_back(v);
    for (double v : ph->LatenciesMs(OpKind::kInsert)) insert_ms.push_back(v);
  }
  ReportLatency(&d, "topk", topk_ms);
  ReportLatency(&d, "insert", insert_ms);
  d.Raw("insert_p50_ms_by_second", PerSecondMedians(fixed_rate, OpKind::kInsert))
      .Num("recall_at_10", recall1.recall);

  if (!a.trace) {
    d.Num("setup_wall_s", Median(sr.setup_s));
    rep->Metric("setup_s", Median(sr.setup_cpu_s), "s");
    rep->Metric("rss_mb", PeakRssMb(), "MB");
    rep->Metric("ops_per_cpu_s", Median(bursts.per_cpu_s), "1/s");
    rep->Metric("quality_at_10", recall1.recall, "ratio");
    return;
  }

  const CountingFileFactory::Counts live = st->files()->counts();
  std::vector<nn::Vector> start_corpus(
      db.embeddings().begin(),
      db.embeddings().begin() + static_cast<std::ptrdiff_t>(start_rows));
  const StoreProbe sp = ProbeStore(start_corpus, Path(a, "store-probe"));
  std::vector<Trajectory> mix(queries.begin(), queries.begin() + 128);
  mix.insert(mix.end(), inserts.begin(), inserts.begin() + 128);
  ServingLayers(model, st, tp, t, mix, sp.compact_ms, kIvfRerank, rep);
  StoreLayers(sp, Median(sr.load_s),
              static_cast<double>(live.fsyncs) /
                  static_cast<double>(insert_cursor),
              static_cast<double>(live.bytes_appended) /
                  static_cast<double>(insert_cursor),
              rep);
  d.Num("fsync_ms_mean", live.fsync_seconds * 1e3 /
                             static_cast<double>(std::max<uint64_t>(
                                 1, live.fsyncs)));
  rep->Metric("retrieval.build_s", Median(sr.build_s), "s");
  double seed_matrix_s = 0.0;
  const DistanceMatrix dm = TimedSeedMatrix(queries, &seed_matrix_s);
  rep->Metric("distance.seed_matrix_s", seed_matrix_s, "s");
  CoreLayers(dm, model, db, queries, a.seed, rep);
  NeuTrajModel scratch = NeuTrajModel::Load(Path(a, "model.ntj"));
  ModelLayers(&scratch, mix, rep);
}

// ---- train-paper -----------------------------------------------------------

/// Ids of the k smallest `dists` (ties by id), skipping `self`.
std::vector<size_t> TopKByDistance(const std::vector<double>& dists,
                                   size_t self, size_t k) {
  std::vector<size_t> ids;
  for (size_t i = 0; i < dists.size(); ++i) {
    if (i != self) ids.push_back(i);
  }
  std::partial_sort(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(k),
                    ids.end(), [&](size_t x, size_t y) {
                      return dists[x] != dists[y] ? dists[x] < dists[y]
                                                  : x < y;
                    });
  ids.resize(k);
  return ids;
}

/// Compares (final loss, HR@10) with the values an earlier run of the same
/// sources recorded in the state directory, or records them. Training
/// inputs do not depend on --seed, so every run must agree bit for bit.
void CheckRepeats(const Args& a, double loss, double hr, Report* rep) {
  if (a.state_dir.empty()) return;
  fs::create_directories(a.state_dir);
  const fs::path file = fs::path(a.state_dir) /
                        ("train-paper-" + a.source_sha256.substr(0, 16) + ".txt");
  char now[96];
  std::snprintf(now, sizeof(now), "%a %a", loss, hr);
  std::ifstream in(file);
  std::string before;
  if (std::getline(in, before)) {
    rep->Check("train_repeats", before == now,
               "final loss and HR@10 " + std::string(now) + " vs earlier " +
                   before);
    return;
  }
  std::ofstream(file) << now << "\n";
  rep->Check("train_repeats", true, "recorded " + std::string(now));
}

/// Embeds `corpus` one trajectory per call on one thread, timing each call.
std::vector<nn::Vector> TimedSingleEmbeds(const NeuTrajModel& model,
                                          const std::vector<Trajectory>& corpus,
                                          std::vector<double>* ms) {
  std::vector<nn::Vector> out;
  ms->clear();
  nn::CellWorkspace ws;
  for (const Trajectory& t : corpus) {
    const Clock::time_point t0 = Clock::now();
    out.push_back(model.Embed(t, &ws));
    ms->push_back(SecondsSince(t0) * 1e3);
  }
  return out;
}

/// Mean HR@10 of embedding top-10 against exact-Fréchet top-10, for the
/// first kHrQueries members of `eval` queried against the rest of it.
double HitRatioAt10(const std::vector<Trajectory>& eval,
                    const std::vector<nn::Vector>& embeds) {
  EmbeddingDatabase db;
  for (const nn::Vector& e : embeds) db.Insert(e);
  std::vector<double> hr(kHrQueries);
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kTrainThreads; ++w) {
    workers.emplace_back([&, w] {
      for (size_t q = w; q < kHrQueries; q += kTrainThreads) {
        std::vector<double> exact(eval.size());
        for (size_t j = 0; j < eval.size(); ++j) {
          exact[j] = neutraj::FrechetDistance(eval[q], eval[j]);
        }
        const std::vector<size_t> truth = TopKByDistance(exact, q, kK);
        const neutraj::SearchResult r =
            db.TopK(embeds[q], kK, static_cast<int64_t>(q));
        hr[q] = neutraj::HittingRatio(
            std::vector<size_t>(r.ids.begin(), r.ids.end()), truth);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return Mean(hr);
}

void RunTrainPaper(const Args& a, Report* rep) {
  // Training inputs and the HR@10 evaluation set are fixed, so the final
  // loss and HR@10 repeat exactly across runs; --seed draws the corpus the
  // encode latency and throughput are measured on.
  const TrajectoryDataset fixed =
      LongDataset(kSeedPool + kEvalRows, kTrainDataSeed);
  const TrajectoryDataset seeded =
      LongDataset(kEncodeRows + kServeInserts, 3000 + a.seed);
  const auto slice = [](const TrajectoryDataset& d, size_t from, size_t to) {
    return std::vector<Trajectory>(
        d.trajectories.begin() + static_cast<std::ptrdiff_t>(from),
        d.trajectories.begin() + static_cast<std::ptrdiff_t>(to));
  };
  const std::vector<Trajectory> seeds = slice(fixed, 0, kSeedPool);
  const std::vector<Trajectory> eval =
      slice(fixed, kSeedPool, kSeedPool + kEvalRows);
  const std::vector<Trajectory> corpus = slice(seeded, 0, kEncodeRows);
  const std::vector<Trajectory> extra =
      slice(seeded, kEncodeRows, kEncodeRows + kServeInserts);

  std::vector<double> setup_s, setup_cpu_s;
  DistanceMatrix dm;
  for (size_t i = 0; i < kTrainSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    dm = neutraj::ComputePairwiseDistances(seeds, neutraj::Measure::kFrechet);
    setup_s.push_back(SecondsSince(t0));
    setup_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
  }

  NeuTrajConfig cfg = ModelConfig();
  cfg.threads = kTrainThreads;
  cfg.epochs = kEpochs;
  cfg.sampling_num = kSamplingNum;
  const neutraj::Grid grid(fixed.region.Inflated(50.0), 100.0);
  neutraj::Trainer trainer(cfg, grid, seeds, dm);
  const double train_cpu0 = ProcessCpuSeconds();
  const neutraj::TrainResult tr = trainer.Train();
  const double train_cpu_s = ProcessCpuSeconds() - train_cpu0;
  NeuTrajModel& model = trainer.model();
  std::vector<double> epoch_s, train_rate;
  double trained = 0.0;
  for (const neutraj::EpochStats& e : tr.epochs) {
    epoch_s.push_back(e.seconds);
    train_rate.push_back(static_cast<double>(e.encoded_trajs) / e.seconds);
    trained += static_cast<double>(e.encoded_trajs);
  }
  rep->Check("training_finished",
             tr.epochs.size() == kEpochs && !tr.diverged,
             std::to_string(tr.epochs.size()) + " epochs");
  const double final_loss =
      tr.epochs.empty() ? 0.0 : tr.epochs.back().mean_loss;

  const std::vector<nn::Vector> eval_embeds =
      model.EmbedAllParallel(eval, kTrainThreads);
  const double hr10 = HitRatioAt10(eval, eval_embeds);
  CheckRepeats(a, final_loss, hr10, rep);

  // Bulk encode, then the same corpus one trajectory per call, each call
  // timed; both must agree bit for bit.
  const Clock::time_point t0 = Clock::now();
  const std::vector<nn::Vector> bulk =
      model.EmbedAllParallel(corpus, kTrainThreads);
  const double encode_tps =
      static_cast<double>(corpus.size()) / SecondsSince(t0);
  std::vector<double> encode_ms;
  const std::vector<nn::Vector> single =
      TimedSingleEmbeds(model, corpus, &encode_ms);
  rep->Check("bulk_matches_single", bulk == single,
             "EmbedAllParallel vs per-call Embed over the encode corpus");
  rep->Ops(corpus.size(), 0);

  double mean_len = 0.0;
  for (const Trajectory& t : corpus) mean_len += static_cast<double>(t.size());
  mean_len /= static_cast<double>(corpus.size());
  std::vector<std::string> epochs_json;
  for (double s : epoch_s) epochs_json.push_back(JsonNumber(s));
  JsonObject& d = rep->detail();
  d.Num("epoch_s", Median(epoch_s))
      .Num("throughput_per_s", Median(train_rate))
      .Raw("epoch_seconds", JsonArray(epochs_json))
      .Num("final_loss", final_loss)
      .Num("encode_tps", encode_tps)
      .Num("hr_at_10", hr10)
      .Num("setup_wall_s", Median(setup_s))
      .Num("mean_points", mean_len)
      .Int("seed_pool", static_cast<int64_t>(kSeedPool))
      .Int("encode_rows", static_cast<int64_t>(kEncodeRows))
      .Int("epochs", static_cast<int64_t>(kEpochs))
      .Int("sampling_num", static_cast<int64_t>(kSamplingNum))
      .Int("train_threads", static_cast<int64_t>(kTrainThreads));
  ReportLatency(&d, "encode", encode_ms);

  if (!a.trace) {
    rep->Metric("setup_s", Median(setup_cpu_s), "s");
    rep->Metric("rss_mb", PeakRssMb(), "MB");
    rep->Metric("ops_per_cpu_s", trained / train_cpu_s, "1/s");
    rep->Metric("quality_at_10", hr10, "ratio");
    return;
  }

  // The traced run also serves what was trained: the encode corpus as a
  // durable corpus, with a short open-loop TopK + Insert pass, so the
  // serving layers are measured at this workload's trajectory lengths.
  const std::string template_dir = Path(a, "train-store");
  fs::remove_all(template_dir);
  fs::create_directories(template_dir);
  EmbeddingDatabase db;
  for (const nn::Vector& e : bulk) db.Insert(e);
  {
    EmbeddingDatabase copy;
    for (const nn::Vector& e : bulk) copy.Insert(e);
    neutraj::store::DurableStore::Options o;
    o.data_dir = template_dir;
    neutraj::store::DurableStore store(&copy, o);
    store.Open();
  }
  StackOptions so;
  so.store_dir = template_dir;
  so.work_dir = Path(a, "work");
  so.ivf.nlist = 32;
  so.traced = true;
  ServingStack stack(model, so, 0);
  OpenLoopClient client("127.0.0.1", stack.port(),
                        {kTopKConnections, kInsertConnections});
  size_t query_cursor = 0;
  size_t insert_cursor = 0;
  uint64_t next_id = stack.db().size();
  Traffic t;
  t.queries = &corpus;
  t.inserts = &extra;
  t.query_cursor = &query_cursor;
  t.insert_cursor = &insert_cursor;
  t.topk_rate = kServeRate;
  t.insert_rate = kServeRate;
  t.seconds = kServeSeconds;
  t.k = kK;
  const TracedPhase tp = RunTraced(&client, &stack, t, &next_id, rep);
  const StoreProbe sp = ProbeStore(bulk, Path(a, "store-probe"));
  ServingLayers(model, &stack, tp, t, corpus, sp.compact_ms, kIvfRerank, rep);
  StoreLayers(sp, sp.load_s, sp.fsyncs_per_insert, sp.bytes_written_per_insert,
              rep);
  rep->Metric("retrieval.build_s", stack.build_s(), "s");
  rep->Metric("distance.seed_matrix_s", Median(setup_s), "s");
  CoreLayers(dm, model, db, corpus, a.seed, rep);
  ModelLayers(&model, seeds, rep);  // Last: the Adam probe moves the weights.
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "query-short" || name == "ingest-mixed" ||
         name == "train-paper";
}

void Generate(const Args& a) {
  fs::create_directories(a.dir);
  if (a.workload == "train-paper") return;  // Generated in-process; cheap.
  // The serving corpus and model depend on no --seed. Both serving
  // workloads use the same model; ingest-mixed starts from the first
  // kIngestRows of query-short's rows.
  const TrajectoryDataset corpus = ShortDataset(kCorpusRows, kCorpusSeed);
  const neutraj::Grid grid(corpus.region.Inflated(50.0), 100.0);
  NeuTrajModel model(ModelConfig(), grid);
  neutraj::Rng rng(kModelSeed);
  model.InitializeWeights(&rng);
  const size_t threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t rows =
      a.workload == "query-short" ? kCorpusRows : kIngestRows;
  EmbeddingDatabase db = EmbeddingDatabase::Build(
      model,
      std::vector<Trajectory>(
          corpus.trajectories.begin(),
          corpus.trajectories.begin() + static_cast<std::ptrdiff_t>(rows)),
      threads);
  model.Save(Path(a, "model.ntj"));
  if (a.workload == "query-short") {
    db.Save(Path(a, "snapshot.embdb"));
    return;
  }
  neutraj::store::DurableStore::Options o;
  o.data_dir = Path(a, "store");
  fs::create_directories(o.data_dir);
  neutraj::store::DurableStore store(&db, o);
  store.Open();  // A fresh directory: snapshots the rows, empty WAL.
}

int Run(const Args& a) {
  const CpuSample cpu0 = ReadCpu();
  Report rep;
  if (a.workload == "query-short") {
    RunQueryShort(a, &rep);
  } else if (a.workload == "ingest-mixed") {
    RunIngestMixed(a, &rep);
  } else {
    RunTrainPaper(a, &rep);
  }
  rep.Print(a, cpu0);
  return 0;
}

}  // namespace perfbench
