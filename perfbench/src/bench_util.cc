#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

size_t NearestRankIndex(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t r = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[NearestRankIndex(v.size(), q)];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - NearestRankIndex(n, q);
}

Tail TailPercentile(std::vector<double> v, double want, size_t min_beyond) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  std::vector<double> candidates = {want};
  for (double q : {0.98, 0.95, 0.90, 0.75, 0.50}) {
    if (q < want) candidates.push_back(q);
  }
  for (double q : candidates) {
    if (SamplesBeyond(v.size(), q) >= min_beyond) {
      t.q = q;
      break;
    }
  }
  if (t.q == 0.0) t.q = 0.5;
  t.fell_back = t.q != want;
  t.value = v[NearestRankIndex(v.size(), t.q)];
  t.beyond = SamplesBeyond(v.size(), t.q);
  return t;
}

CpuSample ReadCpu() {
  CpuSample s;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return s;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest fields are already included in user/nice.
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    s.total += v;
    if (field == 7) s.steal = v;
  }
  return s;
}

double StealShare(const CpuSample& begin, const CpuSample& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

double ProcessCpuSeconds() {
  rusage ru{};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::Num(const std::string& key, double v) {
  return Raw(key, JsonNumber(v));
}

JsonObject& JsonObject::Int(const std::string& key, int64_t v) {
  return Raw(key, std::to_string(v));
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& v) {
  return Raw(key, JsonString(v));
}

JsonObject& JsonObject::Bool(const std::string& key, bool v) {
  return Raw(key, v ? "true" : "false");
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

}  // namespace perfbench
