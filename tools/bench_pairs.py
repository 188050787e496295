#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternating pairs and save the runs.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload sweep-cold --seeds 1,2,10,11 --seconds 30 --trace 0 \\
        --out BENCH_sweep-cold.json

Each checkout must hold perfbench/run.py (it builds its own src/). Pair i
runs both sides on seed i, the parent first on even pairs and the change
first on odd ones, so slow drift of a shared host cancels out. The output
file holds every run's perfbench JSON line with its side, commit, seed,
seconds and model digest, plus a summary of --metric: pairs won by the
change, both medians and the parent's quartiles. Commit ids default to
`git rev-parse --short HEAD` in each checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def commit_of(path):
    try:
        return subprocess.run(["git", "-C", path, "rev-parse", "--short",
                               "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_side(path, args, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(seed), "--seconds", str(args.seconds),
         "--trace", args.trace],
        cwd=path, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: error: run failed in {path} (seed {seed}):"
                 f"\n{proc.stderr[-2000:]}")
    digest = next((ln.split()[-1] for ln in lines if "model digest" in ln),
                  None)
    return digest, json.loads(lines[-1])


def summarize(runs, metric, lower_better):
    if any(metric not in r["result"]["metrics"] for r in runs):
        return None  # e.g. end-to-end metrics on a traced run
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = (
            r["result"]["metrics"][metric]["value"])
    pairs = [v for v in by_seed.values() if len(v) == 2]
    parent = sorted(p["parent"] for p in pairs)
    change = [p["change"] for p in pairs]
    won = sum((p["change"] < p["parent"]) == lower_better for p in pairs)
    q1, _, q3 = (statistics.quantiles(parent, n=4) if len(parent) > 1
                 else (parent[0], None, parent[0]))
    return {"metric": metric, "pairs": len(pairs), "change_won": won,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_q1": q1, "parent_q3": q3}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True,
                    help="comma-separated, one pair per seed")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--metric", default="wall_s")
    ap.add_argument("--parent-commit")
    ap.add_argument("--change-commit")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    commits = {"parent": args.parent_commit or commit_of(sides["parent"]),
               "change": args.change_commit or commit_of(sides["change"])}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        end_to_end = {m["name"]: m for m in json.load(f)["end_to_end"]}
    lower_better = end_to_end.get(args.metric, {}).get("better") != "higher"

    runs = []
    for i, seed in enumerate(int(s) for s in args.seeds.split(",")):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            digest, result = run_side(sides[side], args, seed)
            runs.append({"side": side, "commit": commits[side],
                         "seed": seed, "seconds": args.seconds,
                         "trace": int(args.trace), "digest": digest,
                         "result": result})
            value = result["metrics"].get(args.metric, {}).get("value")
            print(f"seed {seed} {side}: {args.metric} {value} "
                  f"digest {digest}", file=sys.stderr)

    doc = {"workload": args.workload, "commits": commits,
           "summary": summarize(runs, args.metric, lower_better),
           "runs": runs}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(json.dumps(doc["summary"]))


if __name__ == "__main__":
    main()
