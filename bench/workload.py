"""One benchmark workload, run in a process of its own.

Started by run.py, which passes the monotonic time at which it spawned
this process in BENCH_SPAWNED_AT, so that set-up time counts interpreter
start-up and imports.  Prints one JSON object as its last line.

Workloads (see README.md):
  robot_maze        plan scenarios/robot_maze.yaml, then closed-loop episodes
  vehicle_corridor  plan the corridor with the committed net, then episodes
  vehicle_train     `milp-safeguard train` on the benchmark's training scenario
"""

from __future__ import annotations

import argparse
import dataclasses
import contextlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
import traceback
import types

import numpy as np
import yaml

import checker
from spans import Spans, Tracer

SPAWNED_AT = float(os.environ.get("BENCH_SPAWNED_AT", time.monotonic()))
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# A run repeats `rounds` identical rounds of operations, however long they
# take, and reports the mean round, so that the number of rounds behind a
# figure never depends on the speed of the program.  plan_seeds: RRT seeds
# planned in every round, fixed so that every run plans the same trees (plan
# time varies up to 300x between seeds; README.md).  Each round then runs one closed-loop episode,
# under a disturbance seed drawn from --seed, that tracks the round's first
# plan, or the committed plan `track` where the round's plans cannot be
# tracked to the goal.
WORKLOADS = {
    "robot_maze": {
        "scenario": "scenarios/robot_maze.yaml",
        "rounds": 2,
        "plan_seeds": (0, 1),
    },
    "vehicle_corridor": {
        "scenario": "bench/scenarios/vehicle_corridor.yaml",
        "rounds": 2,
        "plan_seeds": (2, 4, 5, 6, 7, 9, 10, 14),
        "track": "bench/scenarios/vehicle_plan.csv",
    },
    "vehicle_train": {
        "scenario": "bench/scenarios/vehicle_train.yaml",
        "rounds": 1,
    },
}

SETUP_PROBES = 2           # set-up probes before every round and after the last
REF_PIECE_ITERS = 1_000    # products in one speed piece
REF_PIECE_S = 0.0085       # one speed piece at the reference speed
REF_PERIOD_S = 0.25        # a speed piece every so often in an operation
OPTIMALITY_SAMPLES = 5     # steps per episode checked against a control grid
GRID_POINTS = 41           # grid points per control axis
MODEL_SAMPLES = 200_000    # fresh plant samples for a net's error bound


def import_package():
    """Import the package from this checkout's src/, and nothing else."""
    sys.path.insert(0, SRC)
    import milp_safeguard
    from milp_safeguard import cli, encoder, learner, milp, nn_model, \
        planner, runtime  # noqa: F401  (the tracer needs every module loaded)
    if not os.path.abspath(milp_safeguard.__file__).startswith(SRC + os.sep):
        raise ImportError(f"milp_safeguard imported from {milp_safeguard.__file__}")
    return sys.modules["milp_safeguard"]


# ---------------------------------------------------------------------------
# Tracing: which functions, and what each call records.
# ---------------------------------------------------------------------------

def _model_note(args, result):
    model, h = result
    eq = sum(1 for c in model.constraints if c.rel == "=")
    return {"model_vars": model.num_vars, "model_rows": len(model.constraints),
            "model_eq_rows": eq, "model_binaries": int(model.is_binary.sum()),
            "undetermined_neurons": sum(len(d) for d in h["d_mm"])}


TRACED = [
    # (module, function, span, note)
    ("cli", "load_scenario", "cli.load_scenario", None),
    ("runtime", "plan_waypoints", "runtime.plan_waypoints", None),
    ("runtime", "run_episode", "runtime.run_episode",
     lambda a, r: {"steps": len(r.steps)}),
    ("planner", "rrt_build", "planner.rrt_build",
     lambda a, r: {"tree_nodes": len(r.nodes)}),
    ("planner", "shortest_path", "planner.shortest_path", None),
    ("planner", "reachable_box", "planner.reachable_box", None),
    ("planner", "_witness_search", "planner.witness_search", None),
    ("nn_model", "forward", "nn_model.forward", None),
    ("nn_model", "forward_batch", "nn_model.forward_batch",
     lambda a, r: {"forward_batch_rows": len(r)}),
    ("nn_model", "output_bounds", "nn_model.output_bounds", None),
    ("nn_model", "preactivation_bounds", "encoder.preactivation_bounds", None),
    ("encoder", "solve_tracking", "encoder.solve_tracking", None),
    ("encoder", "build_tracking_model", "encoder.build_model", _model_note),
    ("encoder", "_check_decision", "encoder.check_decision", None),
    ("milp", "solve", "milp.solve",
     lambda a, r: {"bnb_nodes": r.stats["nodes"],
                   "solve_simplex_iters": r.stats["simplex_iters"]}),
    ("milp", "_simplex", "milp.simplex",
     lambda a, r: {"lp_simplex_iters": r[3]}),
    ("learner", "sample_dataset", "learner.sample_dataset",
     lambda a, r: {"samples": len(r)}),
    ("learner", "train", "learner.train", None),
    ("learner", "gradients", "learner.gradients", None),
    ("learner", "quantify_error", "learner.quantify_error", None),
]


def install_tracer():
    tracer = Tracer()
    for module, func, span, note in TRACED:
        tracer.wrap("milp_safeguard." + module, func, span, note)
    return tracer


def layer_metrics(tracer, n_plans, n_episodes, n_trains):
    """Per-layer metrics from the spans; 0 for a layer that did not run.

    Totals are given per plan (planner, nn_model), per episode (milp,
    runtime) or per `train` command (learner); *_p50 are medians over calls.
    """
    sp = Spans(tracer)
    notes = tracer.notes

    def per(x, n):
        return x / n if n else 0.0

    def p50_ms(span):
        d = sp.durations(span)
        return 1e3 * float(np.median(d)) if d.size else 0.0

    def mean_note(key):
        return float(np.mean(notes[key])) if notes[key] else 0.0

    ws = sp.count("planner.witness_search")
    nodes_added = sum(notes["tree_nodes"]) - sp.count("planner.rrt_build")
    solves = sp.count("milp.solve")
    lp_calls = sp.count_under("milp.simplex", "milp.solve")
    lp_iters = sum(notes["lp_simplex_iters"])
    simplex_s = sp.total("milp.simplex")
    sgd = sp.count("learner.gradients")
    train_s = sp.total("learner.train")
    return {
        "cli.load_scenario_s": per(sp.total("cli.load_scenario"),
                                   sp.count("cli.load_scenario")),
        "planner.witness_search_calls": per(ws, n_plans),
        "planner.witness_search_s": per(sp.total("planner.witness_search"), n_plans),
        "planner.forward_batch_per_witness": per(
            sp.count_under("nn_model.forward_batch", "planner.witness_search"), ws),
        "planner.reachable_box_calls": per(sp.count("planner.reachable_box"), n_plans),
        "planner.reachable_box_s": per(sp.total("planner.reachable_box"), n_plans),
        "planner.rrt_self_s": per(sp.total("planner.rrt_build", "self"), n_plans),
        "planner.shortest_path_s": per(sp.total("planner.shortest_path"), n_plans),
        "planner.tree_nodes": per(sum(notes["tree_nodes"]), n_plans),
        "planner.nodes_per_witness": per(nodes_added, ws),
        "nn_model.forward_batch_calls": per(sp.count("nn_model.forward_batch"), n_plans),
        "nn_model.forward_batch_rows": per(sum(notes["forward_batch_rows"]), n_plans),
        "nn_model.forward_batch_s": per(sp.total("nn_model.forward_batch"), n_plans),
        "nn_model.output_bounds_calls": per(sp.count("nn_model.output_bounds"), n_plans),
        "encoder.solve_tracking_ms_p50": p50_ms("encoder.solve_tracking"),
        "encoder.preactivation_bounds_ms_p50": p50_ms("encoder.preactivation_bounds"),
        "encoder.build_model_ms_p50": p50_ms("encoder.build_model"),
        "encoder.check_decision_ms_p50": p50_ms("encoder.check_decision"),
        "encoder.model_vars": mean_note("model_vars"),
        "encoder.model_rows": mean_note("model_rows"),
        "encoder.model_eq_rows": mean_note("model_eq_rows"),
        "encoder.model_binaries": mean_note("model_binaries"),
        "encoder.undetermined_neurons": mean_note("undetermined_neurons"),
        "milp.solve_ms_p50": p50_ms("milp.solve"),
        "milp.bnb_nodes_per_solve": per(sum(notes["bnb_nodes"]), solves),
        "milp.lp_calls_per_solve": per(lp_calls, solves),
        "milp.simplex_iters_per_solve": per(sum(notes["solve_simplex_iters"]), solves),
        "milp.simplex_iters_per_lp": per(lp_iters, sp.count("milp.simplex")),
        "milp.simplex_s": per(simplex_s, n_episodes),
        "milp.us_per_simplex_iter": per(1e6 * simplex_s, lp_iters),
        "milp.self_s": per(sp.total("milp.solve") - simplex_s, n_episodes),
        "runtime.episode_s": per(sp.total("runtime.run_episode"), n_episodes),
        "runtime.steps": per(sum(notes["steps"]), n_episodes),
        "runtime.self_s": per(sp.total("runtime.run_episode")
                              - sp.total("encoder.solve_tracking"), n_episodes),
        "learner.sample_dataset_s": per(sp.total("learner.sample_dataset"), n_trains),
        "learner.samples": per(sum(notes["samples"]), n_trains),
        "learner.sgd_steps": per(sgd, n_trains),
        "learner.gradients_s": per(sp.total("learner.gradients"), n_trains),
        "learner.train_self_s": per(train_s - sp.total("learner.gradients"), n_trains),
        "learner.sgd_steps_per_s": per(sgd, train_s),
        "learner.quantify_error_s": per(sp.total("learner.quantify_error"), n_trains),
    }


# ---------------------------------------------------------------------------
# Set-up probes.
# ---------------------------------------------------------------------------

def probe_setup(workload):
    """Set-up times of SETUP_PROBES fresh processes of the workload, each
    timed from its spawn to its inputs ready, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        env = dict(os.environ, BENCH_SPAWNED_AT=repr(time.monotonic()))
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--setup-only"], cwd=ROOT, env=env, stdout=subprocess.PIPE,
            text=True, timeout=60, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


class Speed:
    """The machine's speed during the timed operations of a run, from a
    fixed piece of small numpy products timed every REF_PERIOD_S while an
    operation runs.

    The machine this benchmark was sized on changes speed by up to 1.9x
    for minutes at a time, with the same work; times divided by the run's
    slowdown (its pieces' mean time over REF_PIECE_S) read as seconds at
    one fixed speed, so that runs made in a slow period compare with runs
    made in a fast one.  A timer signal runs the pieces inside the
    operation, between two of its bytecodes, so that a long operation is
    sampled all along; its time is reported without them.  The piece
    shares no code with the package.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((48, 48))
        self.x = rng.standard_normal((8, 48))
        self.times = []
        self.spent = 0.0

    def piece(self, signum=None, frame=None):
        a, x = self.a, self.x
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(REF_PIECE_ITERS):
            y = np.maximum(x @ a, 0.0)
            j = int(np.argmin(y[0]))
            acc += float(y[:, j].sum()) + float(x[0] @ a[:, j])
        took = time.perf_counter() - t0
        self.times.append(took)
        self.spent += took
        return acc

    @contextlib.contextmanager
    def sampling(self):
        """Time the block, with pieces every REF_PERIOD_S while it runs;
        the yielded record's `seconds` is the block's time without them."""
        rec = types.SimpleNamespace(seconds=None)
        old = signal.signal(signal.SIGALRM, self.piece)
        spent, t0 = self.spent, time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        try:
            yield rec
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            rec.seconds = time.perf_counter() - t0 - (self.spent - spent)

    def slowdown(self):
        """How many times slower than the reference speed the run went."""
        if not self.times:      # every operation was shorter than a period
            self.piece()
        return float(np.mean(self.times)) / REF_PIECE_S


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, problems, what):
        """Count one operation; problems lists why it failed, if it did."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(f"{what}: {p}" for p in problems)


def _setting(doc, layers):
    b, nz = doc["bounds"], doc["noise"]
    return checker.Setting(
        layers, b["x_lo"], b["x_hi"], b["u_lo"], b["u_hi"],
        nz["eps_x"], nz["eps_y"], nz["eps_u"],
        [(o["lo"], o["hi"]) for o in doc.get("obstacles") or []])


def _plant_samples(doc, rng, n):
    """n fresh (input, next state) pairs of the scenario's plant over X x U."""
    b, plant = doc["bounds"], doc["plant"]
    x = rng.uniform(b["x_lo"], b["x_hi"], size=(n, len(b["x_lo"])))
    u = rng.uniform(b["u_lo"], b["u_hi"], size=(n, len(b["u_lo"])))
    if plant["kind"] == "vehicle":
        nxt = checker.bicycle_step(x, u, float(plant.get("l", 5.0)),
                                   float(plant.get("dt", 0.1)))
    else:
        nxt = checker.point_mass_step(x, u)
    return np.hstack([x, u]), nxt


def plant_errors(doc, nets, rng, chunk=20_000):
    """(largest |error| per state, MSE) of each net on MODEL_SAMPLES fresh
    plant samples, drawn in chunks so that the check adds little to the
    process's peak memory."""
    worst, sse = [0.0] * len(nets), [0.0] * len(nets)
    for start in range(0, MODEL_SAMPLES, chunk):
        inputs, targets = _plant_samples(doc, rng, min(chunk, MODEL_SAMPLES - start))
        for i, layers in enumerate(nets):
            w, mse = checker.model_error(layers, inputs, targets)
            worst[i] = np.maximum(worst[i], w)
            sse[i] += mse * len(inputs)
    return [(w, e / MODEL_SAMPLES) for w, e in zip(worst, sse)]


def check_model(doc, layers, rng, bound):
    """The net's largest error on fresh plant samples is within bound."""
    [(worst, _)] = plant_errors(doc, [layers], rng)
    if np.all(worst <= bound):
        return []
    return [f"net error {worst.tolist()} exceeds {np.asarray(bound).tolist()}"]


def check_episode(doc, st, log, waypoints, rng, tally):
    """Count and check every step of one episode, then the episode."""
    vehicle = doc["plant"]["kind"] == "vehicle"
    steps = log.steps
    sampled = set(rng.choice(len(steps), size=min(OPTIMALITY_SAMPLES, len(steps)),
                             replace=False).tolist())
    grid = checker.control_grid(st, GRID_POINTS)
    for k, s in enumerate(steps):
        if s.status != "Optimal":
            tally.op([f"status {s.status}"], f"step {k}")
            continue
        bad = checker.check_step(st, s)
        if k in sampled:
            bad += checker.check_optimal(st, s, grid)
        if not checker.in_box(s.y, s.x - st.eps_y, s.x + st.eps_y):
            bad.append("measurement further than eps_y from the state")
        u_lo = np.maximum(s.u_cmd - st.eps_u, st.u_lo)
        u_hi = np.minimum(s.u_cmd + st.eps_u, st.u_hi)
        if not checker.in_box(s.u_act, u_lo, u_hi):
            bad.append("actuated control outside u_cmd +- eps_u")
        if vehicle:
            p = doc["plant"]
            expect = checker.bicycle_step(s.x, s.u_act, float(p.get("l", 5.0)),
                                          float(p.get("dt", 0.1)))
            if not np.allclose(s.x_next, expect, rtol=0.0, atol=1e-12):
                bad.append("x_next is not the bicycle step of (x, u_act)")
        else:
            w = s.x_next - checker.point_mass_step(s.x, s.u_act)
            if not np.all(np.abs(w) <= st.eps_x + checker.MEMBER_TOL):
                bad.append("point-mass disturbance exceeds eps_x")
        if k + 1 < len(steps) and not np.array_equal(steps[k + 1].x, s.x_next):
            bad.append("next step does not start from x_next")
        tally.op(bad, f"step {k}")
    bad = []
    if log.status != "GoalReached":
        bad.append(f"episode ended {log.status}")
    elif not checker.in_box(waypoints[-1], steps[-1].box_lo, steps[-1].box_hi):
        bad.append("GoalReached but the last safe box misses the goal")
    tally.op(bad, "episode")


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

def run_control(args, w, probe, setups, speed):
    from milp_safeguard import cli, runtime
    path = os.path.join(ROOT, w["scenario"])
    scenario, _ = cli.load_scenario(path)
    ready = time.monotonic()

    with open(path) as f:
        doc = yaml.safe_load(f)
    if doc["network"]["kind"] == "file":
        layers = checker.read_net(os.path.join(os.path.dirname(path),
                                               doc["network"]["path"]))
    else:
        layers = [(np.array(l.weights), np.array(l.bias))
                  for l in scenario.net.layers]
    st = _setting(doc, layers)
    pl = doc.get("planner") or {}
    margin = np.asarray(pl.get("u_margin", 0.0), dtype=float)
    goal_tol = np.asarray(pl.get("goal_tol", st.eps_x), dtype=float)
    rng = np.random.default_rng(args.seed)
    disturbance_seed = int(rng.integers(0, 2**31))
    tally = Tally()
    model_bound = st.eps_x if doc["network"]["kind"] == "file" else 1e-9
    tally.errors += ["net: " + p for p in check_model(doc, layers, rng, model_bound)]
    tracked = None
    if "track" in w:
        tracked = list(np.loadtxt(os.path.join(ROOT, w["track"]), delimiter=",",
                                  skiprows=1, ndmin=2)[:, 1:])
        tally.errors += ["committed plan: " + p for p in checker.check_plan(
            st, scenario.x0, tracked, st.u_lo + margin, st.u_hi - margin, goal_tol)]

    rounds = []
    for _ in range(w["rounds"]):
        setups.extend(probe())
        plans, plan_times = [], []
        for seed in w["plan_seeds"]:
            with speed.sampling() as op:
                try:
                    wps = runtime.plan_waypoints(
                        dataclasses.replace(scenario, seed=seed))
                except Exception:
                    traceback.print_exc()
                    wps = None
            plan_times.append(op.seconds)
            plans.append(wps)
        wps = plans[0] if tracked is None else tracked
        log = None
        with speed.sampling() as op:
            try:
                if wps is not None:
                    log = runtime.run_episode(
                        dataclasses.replace(scenario, seed=disturbance_seed),
                        waypoints=list(wps))
            except Exception:
                traceback.print_exc()
        episode_s = op.seconds
        rounds.append({"plans": plan_times, "episode_s": episode_s,
                       "solve_ms": [s.solve_ms for s in log.steps] if log else [],
                       "job_s": sum(plan_times) + episode_s})

        # Checks, outside the timed region.
        for p in plans:
            tally.op(["planning raised an exception"] if p is None else
                     checker.check_plan(st, scenario.x0, p, st.u_lo + margin,
                                        st.u_hi - margin, goal_tol), "plan")
        if log is not None:
            check_episode(doc, st, log, wps,
                          np.random.default_rng([args.seed, len(rounds)]), tally)
        else:
            tally.op(["episode did not run to its end"], "episode")
    setups.extend(probe())

    plan_s = float(np.mean([sum(r["plans"]) for r in rounds]))
    job_s = float(np.mean([r["job_s"] for r in rounds]))
    solve_ms = [ms for r in rounds for ms in r["solve_ms"]]
    report = {"plans": len(rounds) * len(w["plan_seeds"]), "episodes": len(rounds),
              "solves": len(solve_ms), "plan_s": plan_s}
    if solve_ms:
        report["solve_ms_p50"] = float(np.median(solve_ms))
        report["control_steps_per_s"] = len(solve_ms) / sum(r["episode_s"]
                                                             for r in rounds)
    if len(solve_ms) >= 100:
        report["solve_ms_p90"] = float(np.percentile(solve_ms, 90))
    return ready, tally, {"job_s": job_s,
                          "rounds": len(rounds), "report": report,
                          "units": (report["plans"], report["episodes"], 0)}


def run_train(args, w, probe, setups, speed):
    from milp_safeguard import cli, learner
    from milp_safeguard.sets import Hypercube
    ready = time.monotonic()

    path = os.path.join(ROOT, w["scenario"])
    with open(path) as f:
        doc = yaml.safe_load(f)
    b, net = doc["bounds"], doc["network"]
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"vehicle_train_net_{os.getpid()}.json")
    start = learner.identity_warm_start(
        Hypercube(b["x_lo"], b["x_hi"]), Hypercube(b["u_lo"], b["u_hi"]),
        tuple(net["hidden"]), seed=int(net.get("seed", 0)))
    start_layers = [(l.weights, l.bias) for l in start.layers]
    tally = Tally()
    rounds = []
    for _ in range(w["rounds"]):
        setups.extend(probe())
        with speed.sampling() as op:
            code = cli.main(["train", path, "--out", out])
        rounds.append({"job_s": op.seconds})
        if code != 0:
            tally.op([f"train exited {code}"], "train")
            continue
        layers = checker.read_net(out)
        rng = np.random.default_rng([args.seed, len(rounds)])
        (worst, mse), (_, mse0) = plant_errors(doc, [layers, start_layers], rng)
        bad = []
        if not np.all(worst <= np.asarray(doc["noise"]["eps_x"])):
            bad.append(f"net error {worst.tolist()} exceeds eps_x")
        if not mse < mse0:
            bad.append(f"MSE {mse:.3g} not below the warm start's {mse0:.3g}")
        tally.op(bad, "train")
        os.remove(out)
    setups.extend(probe())
    train_s = float(np.mean([r["job_s"] for r in rounds]))
    return ready, tally, {"job_s": train_s,
                          "rounds": len(rounds),
                          "report": {"trains": len(rounds), "train_s": train_s},
                          "units": (0, 0, len(rounds))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop when the inputs are ready; print set-up time")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    pkg = import_package()
    tracer = install_tracer() if args.trace else None
    if args.setup_only:
        if "plan_seeds" in w:
            pkg.cli.load_scenario(os.path.join(ROOT, w["scenario"]))
        print(json.dumps({"setup_s": time.monotonic() - SPAWNED_AT}))
        return 0

    # Untraced, set-up is also timed in fresh processes before every round
    # and after the last, and reported as the median of all set-ups.
    setups = []
    probe = (lambda: probe_setup(args.workload)) if not args.trace else lambda: []
    run = run_control if "plan_seeds" in w else run_train
    speed = Speed()
    ready, tally, result = run(args, w, probe, setups, speed)
    units = result.pop("units")
    # job_s at the reference speed; the report keeps it as measured.
    slowdown = speed.slowdown()
    result["report"].update({"job_s_measured": result["job_s"],
                             "slowdown": slowdown, "speed_pieces": len(speed.times)})
    result.update({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors[:20],
        "setup_s": float(np.median([ready - SPAWNED_AT] + setups)),
        "job_s": result["job_s"] / slowdown,
        "setup_samples": 1 + len(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, *units)
        out_dir = os.path.join(BENCH, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.save(os.path.join(out_dir, f"spans_{args.workload}_{args.seed}.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
