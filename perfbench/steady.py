#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs every workload (or those given with --workloads) --runs times, each
run with another seed, and prints per end-to-end metric the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median against the metric's bound. A spread above a
third of the bound is marked "wide", above the bound "OVER". Also prints
each workload's share of failed operations. Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads overlay-assoc --seed0 101

Every run is untraced (--trace 0) and measures BENCHMARK.json's
run_seconds. Exits 1 when a run fails, a check fails, or a spread is over
its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(argv, capture_output=True, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {p.returncode}")
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="first seed; run i uses seed0 + i")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    bad = False
    for w in names:
        values, attempted, failed, walls = {}, 0, 0, []
        for i in range(args.runs):
            out, wall = run_once(bench["command"], w, args.seed0 + i, seconds)
            walls.append(wall)
            if not out["correct"]:
                print(f"{w} seed {args.seed0 + i}: checks FAILED")
                bad = True
            attempted += out["attempted"]
            failed += out["failed"]
            for k, v in out["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"== {w}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f}s, "
              f"failed {failed}/{attempted} = {failed / max(attempted, 1):.6f}")
        for k in sorted(values):
            vs = values[k]
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            line = f"  {k:28s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:7.4f}"
            if k in bounds:
                bound = bounds[k]["bound"]
                mark = "ok"
                if spread > bound:
                    mark = "OVER"
                    bad = True
                elif spread > bound / 3:
                    mark = "wide"
                line += f"  bound {bound:.3f} {mark}"
            print(line, flush=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
