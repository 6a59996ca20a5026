#include "serve/stats.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace neutraj::serve {

const char* EndpointName(Endpoint e) {
  switch (e) {
    case Endpoint::kEncode: return "encode";
    case Endpoint::kPairSim: return "pairsim";
    case Endpoint::kTopK: return "topk";
    case Endpoint::kInsert: return "insert";
    case Endpoint::kStats: return "stats";
    case Endpoint::kHealth: return "health";
    case Endpoint::kTraceDump: return "tracedump";
    case Endpoint::kCount: break;
  }
  return "unknown";
}

ServerStats::ServerStats(obs::MetricsRegistry* registry) {
  obs::MetricsRegistry& reg =
      registry != nullptr ? *registry : obs::MetricsRegistry::Global();
  for (size_t i = 0; i < per_.size(); ++i) {
    const std::string base =
        std::string("serve/") + EndpointName(static_cast<Endpoint>(i));
    per_[i].hist = &reg.GetHistogram(base + "/latency_us");
    per_[i].errors = &reg.GetCounter(base + "/errors");
  }
}

void ServerStats::Record(Endpoint e, double micros, bool error) {
  const PerEndpoint& pe = per_[static_cast<size_t>(e)];
  pe.hist->Record(micros);
  if (error) pe.errors->Increment();
}

StatsSnapshot ServerStats::Snapshot() const {
  StatsSnapshot snap;
  snap.uptime_seconds = uptime_.ElapsedSeconds();
  const double uptime = std::max(snap.uptime_seconds, 1e-9);
  for (size_t i = 0; i < per_.size(); ++i) {
    const obs::LatencyHistogram hist = per_[i].hist->Snapshot();
    EndpointSnapshot es;
    es.name = EndpointName(static_cast<Endpoint>(i));
    es.requests = hist.count();
    es.errors = per_[i].errors->Value();
    es.qps = static_cast<double>(es.requests) / uptime;
    es.mean_micros = hist.mean_micros();
    es.p50_micros = hist.PercentileMicros(0.50);
    es.p90_micros = hist.PercentileMicros(0.90);
    es.p99_micros = hist.PercentileMicros(0.99);
    es.max_micros = hist.max_micros();
    snap.endpoints.push_back(std::move(es));
  }
  return snap;
}

std::string StatsSnapshot::ToString() const {
  std::string out = StrFormat(
      "uptime %.1fs  corpus %llu (d=%u)  encode batches %llu/%llu "
      "(mean batch %.2f)\n",
      uptime_seconds, static_cast<unsigned long long>(corpus_size), dim,
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(batched_requests), mean_batch_size);
  out += StrFormat("%-8s %9s %7s %9s %10s %10s %10s %10s\n", "endpoint",
                   "requests", "errors", "qps", "mean_us", "p50_us", "p99_us",
                   "max_us");
  for (const EndpointSnapshot& e : endpoints) {
    out += StrFormat("%-8s %9llu %7llu %9.2f %10.1f %10.0f %10.0f %10.1f\n",
                     e.name.c_str(), static_cast<unsigned long long>(e.requests),
                     static_cast<unsigned long long>(e.errors), e.qps,
                     e.mean_micros, e.p50_micros, e.p99_micros, e.max_micros);
  }
  if (!metrics.empty()) {
    out += "metrics:\n";
    for (const auto& [name, value] : metrics) {
      out += StrFormat("  %-44s %.6g\n", name.c_str(), value);
    }
  }
  return out;
}

std::string StatsSnapshot::ToPrometheus() const {
  std::string out;
  {
    const std::string p = obs::PrometheusName("serve/uptime_seconds");
    out += StrFormat("# TYPE %s gauge\n%s %.17g\n", p.c_str(), p.c_str(),
                     uptime_seconds);
  }
  {
    const std::string p = obs::PrometheusName("serve/corpus_size");
    out += StrFormat("# TYPE %s gauge\n%s %llu\n", p.c_str(), p.c_str(),
                     static_cast<unsigned long long>(corpus_size));
  }
  for (const EndpointSnapshot& e : endpoints) {
    const std::string base = "serve/" + e.name;
    const std::string req = obs::PrometheusName(base + "/requests");
    out += StrFormat("# TYPE %s counter\n%s %llu\n", req.c_str(), req.c_str(),
                     static_cast<unsigned long long>(e.requests));
    const std::string err = obs::PrometheusName(base + "/errors");
    out += StrFormat("# TYPE %s counter\n%s %llu\n", err.c_str(), err.c_str(),
                     static_cast<unsigned long long>(e.errors));
  }
  // The flattened registry metrics (already name/value pairs) as gauges; the
  // full-resolution histogram buckets are available server-side via
  // RenderPrometheus over the registry, but a remote scrape only sees the
  // snapshot the wire carries.
  for (const auto& [name, value] : metrics) {
    const std::string p = obs::PrometheusName(name);
    out += StrFormat("# TYPE %s gauge\n%s %.17g\n", p.c_str(), p.c_str(),
                     value);
  }
  return out;
}

}  // namespace neutraj::serve
