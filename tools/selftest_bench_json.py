#!/usr/bin/env python3
"""Regression test for tools/bench_json.py against checked-in fixtures.

bench_json.py is the CI perf gate for bench/perf_frame and sweep_all:
--compare is the cross-run determinism check (frame hashes / simulated
cycles must match between two runs, e.g. a SIMD and a forced-scalar
build) and --min-speedup is the scalability bound. A gate that silently
stops failing is worse than no gate, so this script proves both paths
still reject bad inputs, using fixture dumps under tests/data/bench_json/:

  run_fast.json     healthy dump with a parallel leg: gmean speedup 3.47x,
                    raster kernel 2.84x, stream pipeline 2.76x
  run_slow.json     same simulation results (hashes/cycles/tris identical
                    to run_fast) but no speedup anywhere: gmean 1.02x,
                    raster 1.04x, stream 1.02x
  run_serial.json   perf_frame's main dump: run_fast's frames with a
                    serial frame series only (no gmean_speedup, no
                    per-result parallel columns), raster and stream kept
  run_badhash.json  run_fast with one frame_hash and one cycle count
                    corrupted — what a determinism regression looks like —
                    and without the raster/stream series keys (an old
                    dump)
  pairs_v1.json,    two tools/bench_pairs.py documents (wall_s medians
  pairs_v2.json     9.0 -> 7.5, then 7.5 -> 6.0), committed one after the
                    other as BENCH_demo.json in a scratch git repository
                    to test --trajectory

Registered as the `bench_json_selftest` ctest. Usage:

  python3 tools/selftest_bench_json.py /path/to/repo
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys
import tempfile

FAILED = 0


def runTool(root: pathlib.Path, *argv: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "tools" / "bench_json.py"), *argv]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def expect(name: str, proc: subprocess.CompletedProcess,
           want_exit: int, want_in_output: str = "") -> None:
    global FAILED
    output = proc.stdout + proc.stderr
    problems = []
    if proc.returncode != want_exit:
        problems.append(f"exit {proc.returncode}, expected {want_exit}")
    if want_in_output and want_in_output not in output:
        problems.append(f"output lacks {want_in_output!r}")
    if problems:
        FAILED += 1
        print(f"FAIL: {name}: {'; '.join(problems)}")
        print(output.rstrip())
    else:
        print(f"ok: {name}")


def checkTrajectory(root: pathlib.Path, data: pathlib.Path) -> None:
    """--trajectory over a scratch repository with two BENCH commits."""
    global FAILED
    with tempfile.TemporaryDirectory() as tmp:
        def git(*argv: str) -> None:
            subprocess.run(["git", "-C", tmp, "-c", "user.name=selftest",
                            "-c", "user.email=selftest@example.com",
                            *argv], check=True, capture_output=True)

        git("init", "-q")
        (pathlib.Path(tmp) / "README").write_text("not a bench file\n")
        git("add", "README")
        git("commit", "-q", "-m", "no bench yet")
        expect("trajectory without BENCH files",
               runTool(root, "--trajectory", tmp), want_exit=0,
               want_in_output="no committed BENCH_*.json")
        for version in ("pairs_v1.json", "pairs_v2.json"):
            shutil.copy(data / version, pathlib.Path(tmp) / "BENCH_demo.json")
            git("add", "BENCH_demo.json")
            git("commit", "-q", "-m", version)
        proc = runTool(root, "--trajectory", tmp)
        expect("trajectory lists the first point", proc, want_exit=0,
               want_in_output="10/10          9        7.5  0.833x")
        expect("trajectory lists the second point", proc, want_exit=0,
               want_in_output="9/10        7.5          6  0.800x")
        out = proc.stdout
        if out.find("0.833x") > out.find("0.800x"):
            FAILED += 1
            print("FAIL: trajectory is not oldest first")
            print(out.rstrip())
        else:
            print("ok: trajectory is oldest first")


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: selftest_bench_json.py <repo-root>", file=sys.stderr)
        return 2
    root = pathlib.Path(sys.argv[1]).resolve()
    data = root / "tests" / "data" / "bench_json"
    fast = str(data / "run_fast.json")
    slow = str(data / "run_slow.json")
    badhash = str(data / "run_badhash.json")
    serial = str(data / "run_serial.json")

    # Plain report on a healthy dump succeeds.
    expect("report(run_fast)", runTool(root, fast),
           want_exit=0, want_in_output="geometric-mean speedup: 3.47x")

    # Determinism compare: same hashes/cycles/tris at different host speeds
    # must pass.
    expect("compare(fast, slow) identical results",
           runTool(root, fast, "--compare", slow),
           want_exit=0, want_in_output="configurations identical")

    # Corrupted hash and cycle count must fail the compare, naming both.
    proc = runTool(root, fast, "--compare", badhash)
    expect("compare(fast, badhash) rejects", proc,
           want_exit=1, want_in_output="frame_hash differs")
    expect("compare(fast, badhash) also flags cycles", proc,
           want_exit=1, want_in_output="cycles differs")

    # Speedup gate: the slow run is below the bound, the fast one above it.
    expect("min-speedup rejects run_slow",
           runTool(root, slow, "--min-speedup", "2.0"),
           want_exit=1, want_in_output="FAIL: gmean speedup")
    expect("min-speedup accepts run_fast",
           runTool(root, fast, "--min-speedup", "2.0"),
           want_exit=0, want_in_output="OK: gmean speedup")

    # The raster series (SIMD quad rasterizer vs scalar reference) is gated
    # independently of the frame gmean: run_fast carries a healthy 2.84x kernel,
    # run_slow a 1.04x one (what a vectorization regression — or a
    # forced-scalar build leaking into the gated leg — looks like).
    expect("raster series reported",
           runTool(root, fast),
           want_exit=0, want_in_output="raster kernel: sse2 x4: 2.84x")
    expect("raster min-speedup accepts run_fast",
           runTool(root, fast, "--series", "raster", "--min-speedup", "1.5"),
           want_exit=0, want_in_output="OK: raster-kernel speedup")
    expect("raster min-speedup rejects run_slow",
           runTool(root, slow, "--series", "raster", "--min-speedup", "1.5"),
           want_exit=1, want_in_output="FAIL: raster-kernel speedup")
    expect("raster gate on old dump is a hard error",
           runTool(root, badhash, "--series", "raster",
                   "--min-speedup", "1.5"),
           want_exit=1, want_in_output="missing key 'raster_speedup'")

    # The stream series (frame-stream pipeline: 16-frame hybrid AFR+SFR
    # sequence, frames simulated scenario-parallel) is the third
    # independent gate: run_fast carries a healthy 2.76x pipeline, run_slow
    # a 1.02x one (what a frame-parallelism regression looks like).
    expect("stream series reported",
           runTool(root, fast),
           want_exit=0, want_in_output="stream pipeline: 2.76x")
    expect("stream min-speedup accepts run_fast",
           runTool(root, fast, "--series", "stream", "--min-speedup", "1.5"),
           want_exit=0, want_in_output="OK: stream-pipeline speedup")
    expect("stream min-speedup rejects run_slow",
           runTool(root, slow, "--series", "stream", "--min-speedup", "1.5"),
           want_exit=1, want_in_output="FAIL: stream-pipeline speedup")
    expect("stream gate on old dump is a hard error",
           runTool(root, badhash, "--series", "stream",
                   "--min-speedup", "1.5"),
           want_exit=1, want_in_output="missing key 'stream_speedup'")

    # Dumps that predate the optional series stay loadable; gating on an
    # absent series is a hard error (checked per series above).
    expect("old dump without series keys still loads",
           runTool(root, badhash),
           want_exit=0, want_in_output="geometric-mean speedup")

    # perf_frame's serial frame series: reported without parallel columns,
    # hash-compatible with a dump that has them, and the raster gate still
    # works; gating it on the absent gmean series is a hard error.
    expect("serial frame dump reported",
           runTool(root, serial),
           want_exit=0, want_in_output="Mtris/s\n")
    expect("compare(serial, fast) identical results",
           runTool(root, serial, "--compare", fast),
           want_exit=0, want_in_output="configurations identical")
    expect("raster min-speedup accepts run_serial",
           runTool(root, serial, "--series", "raster",
                   "--min-speedup", "1.5"),
           want_exit=0, want_in_output="OK: raster-kernel speedup")
    expect("gmean gate on serial frame dump is a hard error",
           runTool(root, serial, "--min-speedup", "1.5"),
           want_exit=1, want_in_output="missing key 'gmean_speedup'")

    # Malformed input (missing top-level keys) is a hard error, not a pass.
    expect("malformed dump rejected",
           runTool(root, str(data / "run_malformed.json")),
           want_exit=1, want_in_output="missing key")

    if shutil.which("git") is not None:
        checkTrajectory(root, data)
    else:
        print("skip: --trajectory needs git")

    print(f"bench_json self-test: {FAILED} failure(s)")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
