#!/usr/bin/env python3
"""Build and run fsopt's end-to-end benchmark.

    python3 perfbench/run.py --workload study|search|speedup --seed N \
        --seconds S --trace 0|1 [--threads T]

Builds perfbench/ (and with it the fsopt library from src/) in Release
mode into $CARGO_TARGET_DIR, default .bench_build, then runs
fsopt_bench.  setup_s is the median over several set-ups: SETUP_SAMPLES
processes that only set up, plus the measuring process itself, each timed
from just before it is spawned to the start of its first pass.  Every
line fsopt_bench prints is passed through; the last one, the result,
carries that median.  Exits non-zero when the build or any check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 40
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    out = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                    "--target", "fsopt_bench"], check=True, stdout=sys.stderr)
    return out / "fsopt_bench"


def child_env():
    # fsopt reads FSOPT_* knobs (tracing, threads, SIMD tier, batch
    # sizes) from the environment; the benchmark runs on the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("FSOPT_")}


def spawn(cmd, timeout):
    return subprocess.run(cmd + ["--spawn-ns", str(time.monotonic_ns())],
                          stdout=subprocess.PIPE, env=child_env(),
                          timeout=timeout, text=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--threads", type=int, default=0,
                    help="harness threads (default: half the available CPUs)")
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads)]
    setups = []
    for _ in range(SETUP_SAMPLES if args.trace == 0 else 0):
        r = spawn(cmd + ["--setup-only"], timeout=30)
        if r.returncode != 0:
            print(f"run.py: set-up failed ({r.returncode})", file=sys.stderr)
            return r.returncode or 2
        setups.append(json.loads(r.stdout.strip().splitlines()[-1])["setup_s"])

    r = spawn(cmd, timeout=RUN_TIMEOUT_S)
    lines = r.stdout.rstrip("\n").splitlines()
    if not lines:
        print(f"run.py: fsopt_bench printed nothing ({r.returncode})",
              file=sys.stderr)
        return r.returncode or 2
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if "setup_s" in metrics:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    for line in lines[:-1]:
        print(line)
    if setups:
        print(json.dumps({"setup_s_samples": setups}))
    print(json.dumps(result))
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
