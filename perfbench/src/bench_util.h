// Small shared pieces of the repo benchmark: clocks, the percentile rule,
// process and machine readings, and a minimal JSON object writer.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double SecondsSince(Clock::time_point t0);

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double Median(std::vector<double> v);

/// Nearest-rank quantile, q in [0, 1]; 0 when empty.
double Quantile(std::vector<double> v, double q);

/// Samples strictly above the nearest-rank q-quantile of n samples.
size_t SamplesBeyond(size_t n, double q);

/// A tail percentile chosen by the benchmark's percentile rule.
struct Tail {
  double value = 0.0;   ///< The reported quantile.
  double q = 0.0;       ///< Which quantile it is (0.99 when not fallen back).
  size_t n = 0;         ///< Samples it was taken from.
  size_t beyond = 0;    ///< Samples strictly above it.
  bool fell_back = false;  ///< True when `want` had too few samples beyond.
};

/// The percentile rule: report the `want` quantile only when at least
/// `min_beyond` samples lie beyond it; otherwise fall back to the highest of
/// 0.98, 0.95, 0.90, 0.75 and 0.50 that has, and failing that the median.
/// The fallback is flagged so a caller can say so in its output.
Tail TailPercentile(std::vector<double> v, double want = 0.99,
                    size_t min_beyond = 10);

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuSample {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuSample ReadCpu();

/// Share of CPU time stolen by the hypervisor between two samples.
double StealShare(const CpuSample& begin, const CpuSample& end);

/// CPU time this process has used so far (user + system, every thread),
/// in seconds. Time the hypervisor stole from a vCPU is not in it.
double ProcessCpuSeconds();

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// JSON rendering of a double with every significant digit; non-finite
/// values render as null.
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

/// An ordered JSON object built field by field.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v);
  JsonObject& Int(const std::string& key, int64_t v);
  JsonObject& Str(const std::string& key, const std::string& v);
  JsonObject& Bool(const std::string& key, bool v);
  /// Inserts already-rendered JSON (a nested object or array).
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Renders `items` (each already JSON) as an array.
std::string JsonArray(const std::vector<std::string>& items);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
