// perfbench: the repo benchmark's measuring binary.
//
//   perfbench gen --workload W --seed N --dir D
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 [--state-dir P] [--git-sha X] [--source-sha256 Y]
//
// perfbench/run.py builds this binary and runs both steps; see
// perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen|run --workload W --seed N --dir D "
               "[--seconds S] [--trace 0|1] [--state-dir P] [--git-sha X] "
               "[--source-sha256 Y]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  perfbench::Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--dir") {
      args.dir = value;
    } else if (key == "--state-dir") {
      args.state_dir = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else if (key == "--source-sha256") {
      args.source_sha256 = value;
    } else {
      return Usage();
    }
  }
  if ((argc - 2) % 2 != 0 || !perfbench::KnownWorkload(args.workload) ||
      args.dir.empty() || args.seconds <= 0.0) {
    return Usage();
  }
  try {
    if (mode == "gen") {
      perfbench::Generate(args);
      return 0;
    }
    if (mode == "run") return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
  return Usage();
}
