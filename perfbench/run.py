#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload query-short --seed 1 --seconds 20 --trace 0

Workloads: query-short, ingest-mixed, train-paper (see BENCHMARK.json and
perfbench/README.md). The last line of standard output is the result JSON
object; build output and progress go to standard error. Everything is
written under the build directory (CARGO_TARGET_DIR if set, else
.bench_build), and the per-run scratch directory is removed afterwards.

    python3 perfbench/run.py --selftest    # builds and runs the benchmark's tests
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("query-short", "ingest-mixed", "train-paper")
# A run must end within 180 s; the build of a fresh checkout is allowed more.
RUN_LIMIT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_hash(root):
    """sha256 over the library and benchmark sources, so a result names the
    code it ran."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir, targets):
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources under {root / 'src'}")
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", *targets],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_checked(cmd, deadline, capture):
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                          stderr=sys.stderr, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(cmd[0]).name} {cmd[1]} exited with "
                           f"{proc.returncode}")
    return proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = Path(__file__).resolve().parent.parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = Path.cwd() / build_root
    build_dir = build_root / "perfbench"

    started = time.monotonic()
    if args.selftest:
        build(root, build_dir, ["perfbench_test"])
        return subprocess.run([str(build_dir / "perfbench_test")]).returncode

    build(root, build_dir, ["perfbench"])
    binary = str(build_dir / "perfbench")
    # Building is not part of the run's time limit.
    deadline = time.monotonic() + RUN_LIMIT_S
    log(f"built in {time.monotonic() - started:.1f}s")

    run_dir = build_root / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", str(run_dir)]
    try:
        run_checked([binary, "gen", *common], deadline, capture=False)
        out = run_checked(
            [binary, "run", *common, "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace),
             "--state-dir", str(build_root / "state"),
             "--git-sha", git_sha(root),
             "--source-sha256", source_hash(root)],
            deadline, capture=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = [line for line in out.splitlines() if line.strip()]
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("perfbench run printed no result object")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log(f"error: {e}")
        sys.exit(1)
