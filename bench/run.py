"""Benchmark of the safeguard: set-up and whole rounds of work, timed end
to end, or per layer with --trace 1.

    python3 bench/run.py --seed 0                  # every workload
    python3 bench/run.py --workload robot_maze --seed 3 --trace 0
    python3 bench/run.py --seed 0 --trace 1        # all, plus tracing overhead

Each workload runs in a process of its own (bench/workload.py), one after
another, for a fixed number of rounds.  The last line printed is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("robot_maze", "vehicle_corridor", "vehicle_train")
CHILD_TIMEOUT_S = 170
# Threads for numpy's BLAS: one, so that every run does the same arithmetic
# in the same order and the counts repeat exactly.
BLAS_THREADS = "1"

REPORT_UNITS = {"plan_s": "s", "solve_ms_p50": "ms", "solve_ms_p90": "ms",
                "control_steps_per_s": "1/s", "train_s": "s",
                "job_s_measured": "s", "slowdown": "x", "speed_pieces": "count"}


class BenchError(RuntimeError):
    """A workload process failed or printed no result."""


def machine_info() -> dict:
    from importlib.metadata import version
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": version("numpy"),
            "blas_threads": int(BLAS_THREADS)}


def run_workload(workload, seed, trace) -> dict:
    """One workload in a process of its own; its result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
               MILP_SAFEGUARD_LOG="error", BENCH_SPAWNED_AT=repr(time.monotonic()))
    cmd = [sys.executable, os.path.join(BENCH, "workload.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def print_report(workload, res, traced, end_to_end):
    print(f"== {workload} ({'traced' if traced else 'untraced'}): "
          f"{res['rounds']} round(s), attempted {res['attempted']}, "
          f"failed {res['failed']}, correct {res['correct']}")
    for name, unit in end_to_end.items():
        print(f"  {name:<22} {res[name]:12.4f} {unit}")
    for name, value in res["report"].items():
        print(f"  {name:<22} {value:12.4f} {REPORT_UNITS.get(name, 'count')}")
    for err in res["errors"]:
        print(f"  FAILED {err}")
    if traced:
        for name, value in res["layers"].items():
            print(f"  {name:<38} {value:14.6g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="accepted only as BENCHMARK.json's run_seconds: every "
                         "workload runs a fixed number of rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if args.seconds not in (None, spec["run_seconds"]):
        ap.error(f"--seconds must be {spec['run_seconds']} (BENCHMARK.json "
                 "run_seconds); the rounds of a run are fixed")
    if not os.path.isfile(os.path.join(ROOT, "src", "milp_safeguard", "cli.py")):
        print(f"no milp_safeguard sources under {ROOT}/src", file=sys.stderr)
        return 2

    print("machine:", json.dumps(machine_info()))
    if args.workload != "all":
        try:
            res = run_workload(args.workload, args.seed, args.trace)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print_report(args.workload, res, args.trace, end_to_end)
        values, units = (res["layers"], per_layer) if args.trace else (res, end_to_end)
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": metrics}))
        return 0

    # All workloads, one process each, one after another; with --trace 1
    # each is run untraced and then traced, and the difference reported.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        try:
            res = run_workload(workload, args.seed, 0)
            print_report(workload, res, False, end_to_end)
            if args.trace:
                traced = run_workload(workload, args.seed, 1)
                print_report(workload, traced, True, end_to_end)
                for name in end_to_end:
                    if name == "setup_s":   # untraced: a median of several set-ups
                        continue
                    over = traced[name] / res[name] - 1.0
                    print(f"  tracing overhead on {name}: {100 * over:+.1f}%")
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, unit in end_to_end.items():
            total["metrics"][f"{workload}.{name}"] = {"value": res[name], "unit": unit}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
