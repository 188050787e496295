#!/usr/bin/env python3
"""Pretty-print and validate bench JSON dumps (perf_frame, sweep_all).

Reads the JSON summary a wall-clock harness writes, prints a compact
per-(benchmark, scheme) report and the geometric-mean speedup, and can gate
CI:

  python3 tools/bench_json.py BENCH_frame.json
  python3 tools/bench_json.py BENCH_sweep.json --min-speedup 3.0
  python3 tools/bench_json.py BENCH_frame.json --series raster --min-speedup 1.5
  python3 tools/bench_json.py new.json --compare old.json

Both producers share the contract: top-level `results` / `jobs_parallel`,
per-result `bench, scheme, tris, ns_frame_serial, mtris_per_s, frame_hash,
cycles`. Dumps with a parallel leg (sweep_all, perf_frame --stream-out)
add a top-level `gmean_speedup` and per-result `ns_frame_parallel` /
`speedup`; perf_frame's frame series is serial (a frame is serial host
code), so its main dump has neither. sweep_all additionally emits a
`cache` block (hit rates and per-phase counters), which is reported when
present. perf_frame additionally emits the event-queue cost
(`event_queue_ns_per_event`), the quad-rasterizer series
(`raster_speedup`, `raster_ns_per_pixel`, `raster_ns_per_pixel_scalar`,
`raster_pixels`, `raster_backend`, `raster_width`) and the frame-stream
series (`stream_speedup`, `stream_frames`, `stream_frames_per_s`,
`stream_frames_per_mcycle`, `stream_micro_stutter`,
`stream_sequence_hash`); these keys are optional so older dumps stay
valid. perf_frame --stream-out writes a standalone stream dump (one row
per stream scheme, frame_hash = sequence hash, cycles = stream makespan)
under the same top-level contract, so every mode here — report, gates,
--compare — works on it unchanged.

--min-speedup fails (exit 1) when the selected speedup series is below the
bound, and when the dump lacks that series. --series picks which one:
`gmean` (default) is the dump's geometric-mean parallel-over-serial
speedup (sweep_all: cold serial over warm parallel), `raster` is the
SIMD-over-scalar ns/pixel ratio of the quad rasterizer (the harness
asserts the two paths emitted bit-identical fragments before computing
it), `stream` is the frame-stream pipeline's serial-over-parallel ratio
on a 16-frame hybrid AFR+SFR sequence (the harness asserts every
registered stream metric, including the sequence hash, is bit-identical
between the legs). gmean and stream are only meaningful on multi-core
machines.

--compare checks that frame hashes and simulated cycle counts of matching
(bench, scheme) pairs are identical between two runs — e.g. a SIMD build
against a forced-scalar build, or today's run against a stored baseline.

--trajectory [REPO] reads no dump. It walks `git log` over every
committed BENCH_*.json at the root of REPO (default: the current
directory), oldest first, and prints one row per commit of each file:
the workload, the metric tools/bench_pairs.py summarized, pairs won, the
parent and change medians and their ratio. That is the perf trajectory
across PRs:

  python3 tools/bench_json.py --trajectory

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys


# --series name -> (JSON key holding the speedup, human label).
SERIES = {
    "gmean": ("gmean_speedup", "gmean speedup"),
    "raster": ("raster_speedup", "raster-kernel speedup"),
    "stream": ("stream_speedup", "stream-pipeline speedup"),
}


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    for key in ("results", "jobs_parallel"):
        if key not in data:
            sys.exit(f"{path}: missing key '{key}' (not a bench dump?)")
    return data


def report(data: dict) -> None:
    jobs = data["jobs_parallel"]
    tool = "sweep_all" if "cache" in data else "perf_frame"
    print(f"# {tool}: scale={data.get('scale', '?')} "
          f"gpus={data.get('gpus', '?')} jobs={jobs} "
          f"repeat={data.get('repeat', '?')}")
    parallel = all("speedup" in r for r in data["results"])
    header = (f"{'benchmark':<10} {'scheme':<18} {'ktris':>8} "
              f"{'ns j1':>12} ")
    if parallel:
        header += f"{'ns j' + str(jobs):>12} "
    header += f"{'Mtris/s':>9}"
    if parallel:
        header += f" {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for r in data["results"]:
        row = (f"{r['bench']:<10} {r['scheme']:<18} "
               f"{r['tris'] // 1000:>8} "
               f"{r['ns_frame_serial']:>12.0f} ")
        if parallel:
            row += f"{r['ns_frame_parallel']:>12.0f} "
        row += f"{r['mtris_per_s']:>9.2f}"
        if parallel:
            row += f" {r['speedup']:>7.2f}x"
        print(row)
    if "gmean_speedup" in data:
        print(f"\ngeometric-mean speedup: {data['gmean_speedup']:.2f}x")
    if "event_queue_ns_per_event" in data:
        print(f"event queue: {data['event_queue_ns_per_event']:.1f} ns/event")
    if "raster_speedup" in data:
        print(f"raster kernel: {data.get('raster_backend', '?')} "
              f"x{data.get('raster_width', '?')}: "
              f"{data['raster_speedup']:.2f}x speedup "
              f"({data.get('raster_ns_per_pixel_scalar', 0.0):.2f} -> "
              f"{data.get('raster_ns_per_pixel', 0.0):.2f} ns/px)")
    if "stream_speedup" in data:
        print(f"stream pipeline: {data['stream_speedup']:.2f}x speedup "
              f"({data.get('stream_frames', '?')} frames, "
              f"{data.get('stream_frames_per_s', 0.0):.1f} frames/s, "
              f"micro-stutter "
              f"{data.get('stream_micro_stutter', 0.0):.1f} cycles)")
    cache = data.get("cache")
    if cache:
        print(f"result cache: dir={cache.get('dir', '?')} "
              f"warm hit rate {cache.get('warm_hit_rate', 0.0) * 100:.1f}%")
        for phase in ("cold", "warm"):
            s = cache.get(phase)
            if s:
                print(f"  {phase}: computed={s.get('computed', 0)} "
                      f"memo={s.get('memo_hits', 0)} "
                      f"disk={s.get('disk_hits', 0)} "
                      f"rejected={s.get('disk_rejected', 0)} "
                      f"stored={s.get('stored', 0)}")


def compare(data: dict, baseline: dict) -> int:
    """Cross-run determinism check; returns the number of mismatches."""
    def key(r: dict) -> tuple:
        return (r["bench"], r["scheme"])

    base = {key(r): r for r in baseline["results"]}
    mismatches = 0
    for r in data["results"]:
        b = base.get(key(r))
        if b is None:
            print(f"compare: {key(r)} missing from baseline", file=sys.stderr)
            mismatches += 1
            continue
        for field in ("frame_hash", "cycles", "tris"):
            if r[field] != b[field]:
                print(f"compare: {key(r)}: {field} differs "
                      f"({r[field]} != {b[field]})", file=sys.stderr)
                mismatches += 1
    if mismatches == 0:
        print(f"compare: {len(data['results'])} configurations identical "
              "(frame_hash, cycles, tris)")
    return mismatches


def trajectory(repo: str) -> int:
    """Print every committed BENCH_*.json's pair medians across git log."""
    def git(*argv: str) -> str:
        return subprocess.run(["git", "-C", repo, *argv], capture_output=True,
                              text=True, check=True).stdout

    try:
        names = sorted({n for n in git("log", "--format=", "--name-only",
                                       "--", "BENCH_*.json").splitlines()
                        if n and "/" not in n})
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"trajectory: git log failed in {repo}: {e}")
    if not names:
        print(f"trajectory: no committed BENCH_*.json in {repo}")
        return 0
    for name in names:
        print(f"# {name}")
        print(f"{'commit':<10} {'date':<10} {'workload':<14} "
              f"{'metric':<14} {'won':>6} {'parent':>10} {'change':>10} "
              f"{'ratio':>7}")
        for line in git("log", "--reverse", "--format=%h %cs", "--",
                        name).splitlines():
            commit, date = line.split()
            prefix = f"{commit:<10} {date:<10}"
            try:
                doc = json.loads(git("show", f"{commit}:{name}"))
            except subprocess.CalledProcessError:
                print(f"{prefix} (deleted)")
                continue
            except json.JSONDecodeError:
                print(f"{prefix} (not JSON)")
                continue
            s = doc.get("summary") if isinstance(doc, dict) else None
            if not s:
                print(f"{prefix} (no pair summary)")
                continue
            ratio = (s["change_median"] / s["parent_median"]
                     if s["parent_median"] else float("nan"))
            print(f"{prefix} {doc.get('workload', '?'):<14} "
                  f"{s['metric']:<14} "
                  f"{str(s['change_won']) + '/' + str(s['pairs']):>6} "
                  f"{s['parent_median']:>10.4g} {s['change_median']:>10.4g} "
                  f"{ratio:>6.3f}x")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("json_path", nargs="?",
                        help="bench dump from perf_frame or sweep_all")
    parser.add_argument("--trajectory", metavar="REPO", nargs="?",
                        const=".", default=None,
                        help="print the committed BENCH_*.json medians "
                             "across git log in REPO (default: .)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail if the selected speedup series is below "
                             "this bound")
    parser.add_argument("--series", choices=tuple(SERIES),
                        default="gmean",
                        help="which speedup series --min-speedup gates: "
                             "the dump's parallel gmean, the SIMD quad "
                             "rasterizer, or the frame-stream pipeline "
                             "(default: gmean)")
    parser.add_argument("--compare", metavar="BASELINE", default=None,
                        help="check hashes/cycles against another dump")
    args = parser.parse_args()

    if args.trajectory is not None:
        return trajectory(args.trajectory)
    if args.json_path is None:
        parser.error("a bench dump is required unless --trajectory is given")
    data = load(args.json_path)
    report(data)

    status = 0
    if args.compare is not None:
        if compare(data, load(args.compare)) != 0:
            status = 1
    if args.min_speedup is not None:
        key, label = SERIES[args.series]
        if key not in data:
            sys.exit(f"{args.json_path}: missing key '{key}' "
                     f"(--series {args.series} needs a dump that emits it)")
        g = data[key]
        if g < args.min_speedup:
            print(f"FAIL: {label} {g:.2f}x < required "
                  f"{args.min_speedup:.2f}x", file=sys.stderr)
            status = 1
        else:
            print(f"OK: {label} {g:.2f}x >= {args.min_speedup:.2f}x")
    return status


if __name__ == "__main__":
    sys.exit(main())
