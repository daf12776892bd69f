#!/usr/bin/env python3
r"""Build and run the NVMalloc benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The runner (perfbench/runner, built with perfbench/CMakeLists.txt against the
repository's src/) is compiled into .bench_build/perfbench on first use; later
runs only re-check the build.  Everything the runner prints goes to stdout, and
its last line is the result object {"correct", "attempted", "failed",
"metrics"}.  Build output goes to stderr.  Traced runs (--trace 1) also write
their spans to .bench_build/perfbench/trace/<workload>.jsonl, replacing the
previous traced run of that workload.

Extra flag for the benchmark's own tests: --size tiny shrinks every workload.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "nvm_perfbench"
WORKLOADS = ("stream_triad", "random_update", "ckpt_ec")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    return p.parse_args(argv)


def build():
    """Configure (once) and build the runner; build logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no repository sources at {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
           "nvm_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def main(argv):
    args = parse_args(argv)
    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size]
    if args.trace == "1":
        trace_dir = BUILD / "trace"
        trace_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{args.workload}.jsonl")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
