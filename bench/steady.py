"""Steadiness of the benchmark on one commit.

Runs bench/run.py once per workload and seed, in one or more sets over the
same seeds, and reports for every metric the median, the quartiles and the
spread (q3 - q1) / median beside the bound in BENCHMARK.json.  With two or
more sets it also reports how far each set's median moved from the first,
and checks that count metrics repeat exactly, seed by seed.  The share of
failed operations must be the same in every run.

    python3 bench/steady.py --seeds 10                     # every workload
    python3 bench/steady.py --workloads vehicle_train --seeds 5 --sets 2 --trace 1
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload, seed, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=200)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["wall_s"] = wall
    return res


def summarize(values):
    """(median, q1, q3, spread); the quartiles need at least two values."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10, help="seeds 0 .. N-1")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    seeds = range(args.seeds)

    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    path = os.path.join(BENCH, "out", f"steady_{int(time.time())}.jsonl")
    runs = {}   # (set, workload, seed) -> result
    for s in range(args.sets):
        for workload in args.workloads.split(","):
            for seed in seeds:
                res = run_once(workload, seed, args.trace)
                runs[(s, workload, seed)] = res
                with open(path, "a") as f:
                    f.write(json.dumps({"set": s, "workload": workload,
                                        "seed": seed, **res}) + "\n")
                print(f"set {s} {workload} seed {seed}: {res['wall_s']:.1f} s, "
                      f"attempted {res['attempted']}, failed {res['failed']}, "
                      f"correct {res['correct']}", flush=True)

    ok = True
    for workload in args.workloads.split(","):
        print(f"\n== {workload}")
        print(f"  {'metric':<36} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'shift':>7}")
        for m in metrics:
            first_med = None
            for s in range(args.sets):
                vals = [runs[(s, workload, seed)]["metrics"][m["name"]]["value"]
                        for seed in seeds]
                med, q1, q3, spread = summarize(vals)
                first_med = med if first_med is None else first_med
                shift = med / first_med - 1.0 if first_med else 0.0
                bound = m.get("bound")
                flag = ""
                if bound is not None:
                    worse = -shift if m["better"] == "higher" else shift
                    if spread > bound or worse > bound:
                        flag, ok = "  OVER BOUND", False
                    elif spread > bound / 3:
                        flag = "  above bound/3"
                print(f"  {m['name']:<36} {s:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.3f} {bound if bound is not None else '':>6} "
                      f"{shift:+7.3f}{flag}")
        for seed in seeds:
            first = runs[(0, workload, seed)]
            for s in range(1, args.sets):
                other = runs[(s, workload, seed)]
                if first["failed"] * other["attempted"] != other["failed"] * first["attempted"]:
                    print(f"  seed {seed}: failed share differs between sets")
                    ok = False
                for m in metrics:
                    if m["unit"] != "count":
                        continue
                    a = first["metrics"][m["name"]]["value"]
                    b = other["metrics"][m["name"]]["value"]
                    if a != b:
                        print(f"  seed {seed}: {m['name']} {a!r} != {b!r}")
                        ok = False
        shares = {Fraction(r["failed"], r["attempted"])
                  for k, r in runs.items() if k[1] == workload}
        if len(shares) > 1:
            print(f"  failed share differs between runs: {sorted(shares)}")
            ok = False
        walls = [runs[k]["wall_s"] for k in runs if k[1] == workload]
        print(f"  run wall time: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")

    print(f"\nruns saved to {path}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
