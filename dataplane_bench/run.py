#!/usr/bin/env python3
"""Build the SecureAngle library and the dataplane benchmark, then run one
workload.

    python3 dataplane_bench/run.py --workload office --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
(Release, the root CMakeLists.txt's flags) into .bench_build/; later calls
only rebuild what changed. Build output goes to stderr, and the build is
not part of any measurement. The last line of stdout is the benchmark's
JSON result. Exits non-zero, without a result, if the library sources are
missing or the build fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO_ROOT, ".bench_build", "dataplane_bench")
OUT_DIR = os.path.join(REPO_ROOT, ".bench_build", "results")
WORKLOADS = ("office", "wideband-churn", "roaming")
BUILD_JOBS = "3"


def build():
    if not (os.path.isfile(os.path.join(REPO_ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO_ROOT, "src"))):
        print("run.py: library sources not found next to the benchmark",
              file=sys.stderr)
        return None
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Concurrent runs share one build directory: build under a lock.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "dataplane_bench", "-j", BUILD_JOBS])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=REPO_ROOT).returncode != 0:
                print("run.py: build failed: " + " ".join(cmd),
                      file=sys.stderr)
                return None
    return os.path.join(BUILD_DIR, "dataplane_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    sys.stdout.flush()
    return subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", OUT_DIR],
        cwd=REPO_ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
