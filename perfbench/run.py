#!/usr/bin/env python3
"""Build and run the CHOPIN benchmark.

    python3 perfbench/run.py --workload sweep-cold|frame-latency|stream \\
        --seed N --seconds S --trace 0|1 [--tiny]

Builds perfbench/ together with the simulator sources in src/ (CMake,
RelWithDebInfo) into .bench_build/perfbench under the repository root,
then runs chopin_perfbench. Build output goes to stderr; the last line of
stdout is the JSON result. A traced run (--trace 1) also writes its spans
to .bench_build/spans/<workload>-seed<N>.tsv.

Exits non-zero without a result when the sources are missing, the build
fails, the benchmark fails or it overruns its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "chopin_perfbench")
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: error: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found in {ROOT}/src", 2)
    try:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *generator,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j", "4",
                        "--target", "chopin_perfbench"],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep-cold", "frame-latency", "stream"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size (seconds instead of minutes)")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace == "1":
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.tsv")]
    try:
        # subprocess.run kills and reaps the child when the timeout fires.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with status {proc.returncode}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
