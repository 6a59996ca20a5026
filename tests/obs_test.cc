// Tests for the observability layer (src/obs/): the metrics registry
// (counters, gauges, concurrent log2 histograms), the always-on span sites
// in the encoder and trainer, the jsonl metrics sink, and the Prometheus
// text renderer — plus an end-to-end check that training telemetry never
// changes training numerics.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/trainer.h"
#include "distance/pairwise.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace neutraj::obs {
namespace {

// -- LatencyHistogram --------------------------------------------------------

TEST(LatencyHistogramTest, BucketZeroIsZeroToOneMicrosInclusive) {
  // Pin the documented bucket-0 contract: [0, 1] µs inclusive. Exact zeros
  // (no-op fast paths below timer resolution), sub-µs samples and exactly
  // 1.0 µs all land in bucket 0; the first value strictly above 1 µs lands
  // in bucket 1, whose range is (1, 2].
  LatencyHistogram h;
  h.Record(0.0);
  h.Record(0.5);
  h.Record(1.0);
  EXPECT_EQ(h.buckets()[0], 3u);
  EXPECT_EQ(h.buckets()[1], 0u);
  // Interpolated within bucket 0: the median of {0, 0.5, 1.0} reads as the
  // halfway point of [0, 1], and p100 as the bucket's (== the max's) top.
  EXPECT_EQ(h.PercentileMicros(0.5), 0.5);
  EXPECT_EQ(h.PercentileMicros(1.0), 1.0);
  EXPECT_EQ(LatencyHistogram::BucketUpperMicros(0), 1.0);

  h.Record(1.5);
  EXPECT_EQ(h.buckets()[1], 1u);
  // p100 interpolates to bucket 1's top (2.0) but is capped at the tracked
  // max — no percentile ever exceeds an actually observed latency.
  EXPECT_EQ(h.PercentileMicros(1.0), 1.5);
}

TEST(LatencyHistogramTest, NegativeSamplesClampToBucketZero) {
  LatencyHistogram h;
  h.Record(-5.0);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.max_micros(), 0.0);
  EXPECT_EQ(h.mean_micros(), 0.0);
}

TEST(LatencyHistogramTest, OverflowSamplesLandInTheLastBucket) {
  LatencyHistogram h;
  h.Record(1e12);  // Far beyond the ~134 s top bound.
  EXPECT_EQ(h.buckets()[LatencyHistogram::kNumBuckets - 1], 1u);
  // Interpolation puts the lone sample's p50 at the open-ended last
  // bucket's midpoint (capped at max, which is far above it here).
  const double lower =
      LatencyHistogram::BucketUpperMicros(LatencyHistogram::kNumBuckets - 2);
  const double upper =
      LatencyHistogram::BucketUpperMicros(LatencyHistogram::kNumBuckets - 1);
  EXPECT_EQ(h.PercentileMicros(0.5), 0.5 * (lower + upper));
  EXPECT_EQ(h.max_micros(), 1e12);
}

TEST(LatencyHistogramTest, PercentilesInterpolateInsteadOfSnappingToBucketTop) {
  // Regression pin for the p50 == p99 == 8192 µs artifact: when one log2
  // bucket holds most of the mass, upper-bound snapping made every
  // percentile identical. Interpolation must keep p50 < p99 even though
  // both land in the same (2, 4] bucket.
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.Record(2.0 + 0.02 * i);  // (2.02 .. 4.0].
  EXPECT_EQ(h.buckets()[2], 100u);
  EXPECT_DOUBLE_EQ(h.PercentileMicros(0.5), 3.0);    // 2 + 0.50 * 2.
  EXPECT_DOUBLE_EQ(h.PercentileMicros(0.99), 3.98);  // 2 + 0.99 * 2.
  EXPECT_LT(h.PercentileMicros(0.5), h.PercentileMicros(0.99));
  // A single-sample histogram reports the sample itself, not its bucket's
  // power-of-two ceiling.
  LatencyHistogram one;
  one.Record(3.0);
  EXPECT_DOUBLE_EQ(one.PercentileMicros(0.5), 3.0);
  EXPECT_DOUBLE_EQ(one.PercentileMicros(0.99), 3.0);
}

TEST(ConcurrentHistogramTest, SnapshotMatchesPlainHistogram) {
  ConcurrentHistogram ch;
  LatencyHistogram plain;
  for (const double v : {0.0, 1.0, 3.0, 100.0, 1e7}) {
    ch.Record(v);
    plain.Record(v);
  }
  const LatencyHistogram snap = ch.Snapshot();
  EXPECT_EQ(snap.count(), plain.count());
  EXPECT_EQ(snap.buckets(), plain.buckets());
  EXPECT_DOUBLE_EQ(snap.sum_micros(), plain.sum_micros());
  EXPECT_EQ(snap.max_micros(), plain.max_micros());
  EXPECT_EQ(snap.PercentileMicros(0.5), plain.PercentileMicros(0.5));
}

// -- Counter / Gauge / registry ----------------------------------------------

TEST(MetricsRegistryTest, GetReturnsStableReferencesPerName) {
  MetricsRegistry reg;
  Counter& c1 = reg.GetCounter("requests");
  Counter& c2 = reg.GetCounter("requests");
  EXPECT_EQ(&c1, &c2);
  c1.Increment();
  c2.Add(2);
  EXPECT_EQ(c1.Value(), 3u);

  Gauge& g = reg.GetGauge("lr");
  g.Set(0.25);
  g.Add(0.25);
  EXPECT_DOUBLE_EQ(reg.GetGauge("lr").Value(), 0.5);

  ConcurrentHistogram& h = reg.GetHistogram("latency");
  h.Record(3.0);
  EXPECT_EQ(reg.GetHistogram("latency").count(), 1u);
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.GetCounter("x");
  EXPECT_THROW(reg.GetGauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.GetHistogram("x"), std::invalid_argument);
  reg.GetGauge("y");
  EXPECT_THROW(reg.GetCounter("y"), std::invalid_argument);
  reg.GetHistogram("z");
  EXPECT_THROW(reg.GetGauge("z"), std::invalid_argument);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry reg;
  reg.GetCounter("b/count").Add(2);
  reg.GetCounter("a/count").Add(1);
  reg.GetGauge("z/gauge").Set(9.0);
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a/count");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "b/count");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "z/gauge");
}

TEST(MetricsSnapshotTest, FlattenExpandsHistogramsAndSorts) {
  MetricsRegistry reg;
  reg.GetHistogram("h").Record(3.0);  // Bucket (2, 4].
  reg.GetCounter("c").Add(7);
  reg.GetGauge("g").Set(2.5);
  const auto flat = reg.Snapshot().Flatten();
  // Single-sample percentiles report the sample (interpolation + max cap),
  // not the bucket's 4.0 upper bound.
  const std::vector<std::pair<std::string, double>> expected = {
      {"c", 7.0},        {"g", 2.5},         {"h/count", 1.0},
      {"h/max_us", 3.0}, {"h/mean_us", 3.0}, {"h/p50_us", 3.0},
      {"h/p99_us", 3.0},
  };
  EXPECT_EQ(flat, expected);
}

// -- Concurrent recording ----------------------------------------------------

TEST(MetricsConcurrencyTest, TotalsAreExactUnderContention) {
  // N threads × M operations against one counter, one gauge and one
  // histogram: every total must be exact (the design promise that lock-free
  // recording is racy only in float rounding, never in counts — and integer
  // gauge increments are exact in double too).
  MetricsRegistry reg;
  Counter& counter = reg.GetCounter("hits");
  Gauge& gauge = reg.GetGauge("acc");
  ConcurrentHistogram& hist = reg.GetHistogram("lat");
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 10000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter.Increment();
        gauge.Add(1.0);
        hist.Record(i % 2 == 0 ? 0.5 : 3.0);  // Buckets 0 and (2, 4].
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  constexpr uint64_t kTotal = uint64_t{kThreads} * kOpsPerThread;
  EXPECT_EQ(counter.Value(), kTotal);
  EXPECT_DOUBLE_EQ(gauge.Value(), static_cast<double>(kTotal));
  const LatencyHistogram snap = hist.Snapshot();
  EXPECT_EQ(snap.count(), kTotal);
  EXPECT_EQ(snap.buckets()[0], kTotal / 2);
  EXPECT_EQ(snap.buckets()[2], kTotal / 2);
  EXPECT_DOUBLE_EQ(snap.sum_micros(),
                   (kTotal / 2) * 0.5 + (kTotal / 2) * 3.0);
  EXPECT_EQ(snap.max_micros(), 3.0);
}

// -- Prometheus rendering ----------------------------------------------------

TEST(PrometheusTest, NameSanitization) {
  EXPECT_EQ(PrometheusName("trainer/mean_loss"), "neutraj_trainer_mean_loss");
  EXPECT_EQ(PrometheusName("serve/encode/latency_us"),
            "neutraj_serve_encode_latency_us");
  EXPECT_EQ(PrometheusName("a:b"), "neutraj_a:b");  // Colons are legal.
  EXPECT_EQ(PrometheusName("weird name-1%"), "neutraj_weird_name_1_");
}

TEST(PrometheusTest, GoldenRendering) {
  MetricsRegistry reg;
  reg.GetCounter("requests_total").Add(3);
  reg.GetGauge("corpus/size").Set(42.0);
  ConcurrentHistogram& h = reg.GetHistogram("encode_us");
  h.Record(1.0);  // Bucket 0: [0, 1].
  h.Record(3.0);  // Bucket 2: (2, 4].

  std::string expected =
      "# TYPE neutraj_requests_total counter\n"
      "neutraj_requests_total 3\n"
      "# TYPE neutraj_corpus_size gauge\n"
      "neutraj_corpus_size 42\n"
      "# TYPE neutraj_encode_us histogram\n";
  uint64_t cumulative = 0;
  for (size_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    cumulative += (b == 0 || b == 2) ? 1 : 0;
    expected += StrFormat("neutraj_encode_us_bucket{le=\"%.0f\"} %llu\n",
                          LatencyHistogram::BucketUpperMicros(b),
                          static_cast<unsigned long long>(cumulative));
  }
  expected +=
      "neutraj_encode_us_bucket{le=\"+Inf\"} 2\n"
      "neutraj_encode_us_sum 4\n"
      "neutraj_encode_us_count 2\n";
  EXPECT_EQ(RenderPrometheus(reg.Snapshot()), expected);
}

// -- JSONL sink --------------------------------------------------------------

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(JsonlSinkTest, WritesOneFlushedObjectPerLine) {
  const std::string path = ::testing::TempDir() + "/obs_test_metrics.jsonl";
  JsonlSink sink(path);
  EXPECT_EQ(sink.path(), path);
  sink.Write({{"epoch", 0.0}, {"mean_loss", 0.125}});
  // Flushed after every Write: readable before the sink is destroyed.
  ASSERT_EQ(ReadLines(path).size(), 1u);
  sink.Write({{"epoch", 1.0},
              {"nan_metric", std::nan("")},
              {"inf_metric", HUGE_VAL}});

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"epoch\": 0, \"mean_loss\": 0.125}");
  // NaN / Inf are not representable in JSON and must become null.
  EXPECT_EQ(lines[1],
            "{\"epoch\": 1, \"nan_metric\": null, \"inf_metric\": null}");
  std::remove(path.c_str());
}

TEST(JsonlSinkTest, ThrowsWhenTheFileCannotBeCreated) {
  EXPECT_THROW(JsonlSink("/nonexistent-dir/metrics.jsonl"),
               std::runtime_error);
}

TEST(JsonlSinkTest, JsonEscapeHandlesQuotesAndControlChars) {
  EXPECT_EQ(JsonEscape("plain/name_us"), "plain/name_us");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("l1\nl2\tx"), "l1\\nl2\\tx");
  EXPECT_EQ(JsonEscape(std::string("a\x01z")), "a\\u0001z");
}

// -- End to end: training telemetry ------------------------------------------

NeuTrajConfig ObsTinyConfig() {
  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = 8;
  cfg.scan_width = 1;
  cfg.sampling_num = 3;
  cfg.batch_size = 5;
  cfg.epochs = 2;
  return cfg;
}

struct TinyTrainingSet {
  std::vector<Trajectory> corpus;
  DistanceMatrix d;
  Grid grid;
};

TinyTrainingSet MakeTinyTrainingSet() {
  Rng rng(97);
  std::vector<Trajectory> corpus =
      neutraj::testing::RandomCorpus(10, 5, 9, 200.0, &rng);
  DistanceMatrix d = ComputePairwiseDistances(corpus, Measure::kFrechet);
  BoundingBox region = BoundingBox::Empty();
  for (const Trajectory& t : corpus) region.Extend(t.Bounds());
  return {std::move(corpus), std::move(d), Grid(region.Inflated(10.0), 50.0)};
}

TEST(ObsTrainingTest, JsonlSinkGetsOneEpochLineAndNumericsAreUnchanged) {
  const TinyTrainingSet set = MakeTinyTrainingSet();
  const std::vector<Trajectory>& corpus = set.corpus;
  const DistanceMatrix& d = set.d;
  const Grid& grid = set.grid;
  const NeuTrajConfig cfg = ObsTinyConfig();

  // Run once without telemetry, once with the JSONL sink attached: losses
  // must be bit-identical (the sink only observes; it never perturbs the
  // RNG streams, sampling or gradients).
  Trainer plain(cfg, grid, corpus, d);
  const TrainResult base = plain.Train();

  const std::string path = ::testing::TempDir() + "/obs_test_train.jsonl";
  Trainer instrumented(cfg, grid, corpus, d);
  JsonlSink sink(path);
  instrumented.SetMetricsSink(&sink);
  const TrainResult result = instrumented.Train();

  ASSERT_EQ(result.epochs.size(), base.epochs.size());
  for (size_t e = 0; e < result.epochs.size(); ++e) {
    EXPECT_EQ(result.epochs[e].mean_loss, base.epochs[e].mean_loss)
        << "telemetry changed training numerics at epoch " << e;
  }

  // One parseable line per epoch, carrying the extended telemetry fields.
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), cfg.epochs);
  for (size_t e = 0; e < lines.size(); ++e) {
    EXPECT_EQ(lines[e].front(), '{');
    EXPECT_EQ(lines[e].back(), '}');
    EXPECT_NE(lines[e].find(StrFormat("\"epoch\": %zu", e)),
              std::string::npos);
    for (const char* key :
         {"mean_loss", "grad_norm", "learning_rate", "sampled_pairs",
          "encoded_trajs", "trajs_per_sec", "sampler_fill",
          "sam_attention_entropy"}) {
      EXPECT_NE(lines[e].find('"' + std::string(key) + '"'),
                std::string::npos)
          << "epoch line " << e << " missing key " << key << ": " << lines[e];
    }
  }

  // The epoch stats themselves carry the new telemetry.
  const EpochStats& last = result.epochs.back();
  EXPECT_GT(last.sampled_pairs, 0u);
  EXPECT_GT(last.encoded_trajs, 0u);
  EXPECT_GT(last.learning_rate, 0.0);
  EXPECT_GT(last.sampler_fill, 0.0);
  EXPECT_LE(last.sampler_fill, 1.0);
  EXPECT_GT(last.sam_attention_entropy, 0.0)
      << "SAM read-attention entropy should be positive once memory fills";
  std::remove(path.c_str());
}

// -- Always-on span sites ----------------------------------------------------

uint64_t GlobalSamples(const char* metric) {
  return MetricsRegistry::Global().GetHistogram(metric).count();
}

TEST(SpanSiteTest, TrainRecordsOneEpochSamplePerEpochAndBackwardSpans) {
  const TinyTrainingSet set = MakeTinyTrainingSet();
  Trainer trainer(ObsTinyConfig(), set.grid, set.corpus, set.d);  // 2 epochs.
  const uint64_t epochs0 = GlobalSamples("trace/trainer/epoch_us");
  const uint64_t backward0 = GlobalSamples("trace/nn/backward_us");
  trainer.Train();
  EXPECT_EQ(GlobalSamples("trace/trainer/epoch_us") - epochs0, 2u);
  EXPECT_GT(GlobalSamples("trace/nn/backward_us") - backward0, 0u);
}

TEST(SpanSiteTest, EmbedAllRecordsOneEncodeSamplePerTrajectory) {
  const TinyTrainingSet set = MakeTinyTrainingSet();
  Trainer trainer(ObsTinyConfig(), set.grid, set.corpus, set.d);
  const uint64_t encodes0 = GlobalSamples("trace/nn/encode_us");
  trainer.model().EmbedAll(set.corpus);
  EXPECT_EQ(GlobalSamples("trace/nn/encode_us") - encodes0, set.corpus.size());
}

}  // namespace
}  // namespace neutraj::obs
