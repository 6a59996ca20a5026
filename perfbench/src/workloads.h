// The benchmark's three workloads. Each has a `gen` step (inputs written to
// a run directory, run in its own process so its memory and time stay out of
// the measurement) and a `run` step that measures and prints the result.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string dir;        ///< Run directory for generated inputs and scratch.
  std::string state_dir;  ///< Survives runs: per-seed reference results.
  std::string git_sha = "unknown";
  std::string source_sha256 = "unknown";
};

/// True for "query-short", "ingest-mixed" and "train-paper".
bool KnownWorkload(const std::string& name);

/// Writes the workload's generated inputs into args.dir.
void Generate(const Args& args);

/// Runs the workload; prints detail lines and, last, the result JSON object.
/// Returns the process exit code.
int Run(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
