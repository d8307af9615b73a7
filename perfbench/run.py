#!/usr/bin/env python3
"""Build and run the BARS end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures, builds and
installs the library (Release) under .bench_build/ and builds the
benchmark binary against it; later runs only re-check the builds. The
binary's output is passed through unchanged: its last line is the JSON
result. Exit status is the binary's (non-zero when an output check
fails); a failed build exits 2 without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("solve-tref20k-async1", "solve-fv-async5-simd", "svc-mixed")
# A run measures its window; matrix generation, warm-up and (traced) the
# triad and layer probes add to it. Twice the window plus a margin
# covers both.
RUN_MARGIN_S = 80


def step(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode == 0


def build():
    """Return the benchmark binary's path, or None when a step failed."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        print("perfbench: no BARS sources next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return None
    os.makedirs(BUILD, exist_ok=True)
    lib, prefix, bench = (os.path.join(BUILD, d) for d in ("bars", "prefix", "perfbench"))
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        ok = (
            (os.path.isfile(os.path.join(lib, "CMakeCache.txt")) or step(
                ["cmake", "-S", ROOT, "-B", lib, *gen, "-DCMAKE_BUILD_TYPE=Release",
                 "-DBARS_BUILD_TESTS=OFF", "-DBARS_BUILD_BENCHMARKS=OFF",
                 "-DBARS_BUILD_EXAMPLES=OFF", "-DCMAKE_INSTALL_PREFIX=" + prefix], log))
            and step(["cmake", "--build", lib, "-j", jobs], log)
            and step(["cmake", "--install", lib], log)
            and (os.path.isfile(os.path.join(bench, "CMakeCache.txt")) or step(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bench, *gen,
                 "-DCMAKE_BUILD_TYPE=Release", "-DBARS_PREFIX=" + prefix], log))
            and step(["cmake", "--build", bench, "-j", jobs], log)
        )
    if not ok:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        print("perfbench: build failed, see " + log_path, file=sys.stderr)
        return None
    return os.path.join(bench, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 2
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    sys.stdout.flush()
    timeout_s = 2 * args.seconds + RUN_MARGIN_S
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %.0f s (twice --seconds plus %d s) and "
              "was stopped" % (timeout_s, RUN_MARGIN_S), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
