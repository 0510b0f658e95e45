"""Command-line front end: simulate, train, verify, solve-once.

Scenario files are YAML with sections plant, network, bounds, noise,
obstacles, task, solver, run, planner; lengths in meters, angles in
radians.  An absent key takes its dataclass default; a key or section
that is not a setting is an error.  Exit codes: 0 success/GoalReached,
1 usage, config error or diverged training, 2 an episode halted
infeasible or inadmissible, a failed seed sweep or verification, a plan
that misses the goal, or no safe control in solve-once or verify,
3 step limit.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np
import yaml

from milp_safeguard.encoder import SolveIterationLimit, SolverInfeasible, \
    SolverNumericalFailure, solve_tracking
from milp_safeguard.learner import (
    TrainConfig,
    TrainingDiverged,
    identity_warm_start,
    quantify_error,
    sample_dataset,
    train,
)
from milp_safeguard.milp import SolverConfig
from milp_safeguard.nn_model import (
    build_identity_sum_network,
    forward_batch,
    load_network,
    output_bounds,
    save_network,
)
from milp_safeguard.oracle import (
    NoFeasibleGridPoint,
    grid_control_search,
    input_boxes,
)
from milp_safeguard.planner import NoPath, PlanFailure
from milp_safeguard.plants import RobotPlant, VehiclePlant, measure
from milp_safeguard.runtime import (
    GOAL_REACHED,
    STEP_LIMIT,
    PlannerParams,
    Scenario,
    plan_waypoints,
    run_episode,
)
from milp_safeguard.sets import Hypercube, UnsafeRegion

log = logging.getLogger("milp_safeguard")

# Failures of a run, not of its input: the command exits 2.
_RUN_FAILURES = (SolverInfeasible, SolveIterationLimit, SolverNumericalFailure,
                 PlanFailure, NoPath)


class ScenarioError(ValueError):
    """The scenario file is malformed or inconsistent."""


def _floats(v):
    return np.asarray(v, dtype=float)


def _identity(v):
    """network.init's one value: start training from the identity net."""
    if v != "identity":
        raise ValueError(v)
    return v


# Each section's keys and the cast of their values.  A key names the
# dataclass field it sets, except the two in _FIELD.
_SOLVER = {"max_nodes": int, "max_simplex_iters": int}
_PLANNER = {"max_iters": int, "goal_bias": float, "clearance": float,
            "u_margin": _floats}
_RUN = {"seed": int, "max_steps": int}
_TRAIN = {"hidden": tuple, "epochs": int, "learning_rate": float,
          "batch_size": int, "seed": int, "lr_decay": float,
          "decay_every": int, "samples": int, "eval_samples": int,
          "init": _identity}
_PLANTS = {"robot": {}, "vehicle": {"l": float, "dt": float}}
_NETWORKS = {"identity_sum": {}, "file": {"path": str}, "train": _TRAIN}
_BOUNDS = dict.fromkeys(("x_lo", "x_hi", "u_lo", "u_hi"), _floats)
_NOISE = dict.fromkeys(("eps_x", "eps_y", "eps_u"), _floats)
_TASK = dict.fromkeys(("x0", "xg", "x_ref"), _floats)
_BOX = dict.fromkeys(("lo", "hi"), _floats)
_FIELD = {"hidden": "hidden_sizes", "l": "wheelbase"}
_SECTIONS = ("plant", "network", "bounds", "noise", "obstacles", "task",
             "solver", "run", "planner")
_REQUIRED = ("plant", "network", "bounds", "noise", "task")


def _settings(block, section, keys, required=()):
    """A YAML section as {field: value}, each present key cast by keys.

    An absent key is left out, so the dataclass built from the result
    takes its own default.  A key not in keys, a missing required key and
    a value that does not cast are errors.
    """
    block = {} if block is None else block
    if not isinstance(block, dict):
        raise ScenarioError(f"section '{section}' is not a mapping")
    out = {}
    for key, value in block.items():
        if key not in keys:
            raise ScenarioError(f"unknown key '{key}' in section '{section}'")
        try:
            out[_FIELD.get(key, key)] = keys[key](value)
        except (TypeError, ValueError):
            raise ScenarioError(f"'{section}.{key}' is not valid: {value!r}")
    for key in required:
        if key not in block:
            raise ScenarioError(f"missing '{key}' in section '{section}'")
    return out


def _kind(block, section, kinds):
    """A section whose keys depend on its 'kind', read by _settings."""
    kind = block.get("kind") if isinstance(block, dict) else None
    if kind not in kinds:
        raise ScenarioError(f"unknown {section} kind: {kind!r}")
    return _settings(block, section, {"kind": str, **kinds[kind]})


def _read_document(path):
    """The YAML scenario document: required sections present, no other."""
    try:
        with open(path) as f:
            doc = yaml.safe_load(f)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}")
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario is not valid YAML: {exc}")
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a mapping of sections")
    for section in doc:
        if section not in _SECTIONS:
            raise ScenarioError(f"unknown section '{section}'")
    for section in _REQUIRED:
        if section not in doc:
            raise ScenarioError(f"missing section '{section}'")
    return doc


def _read_settings(doc):
    """Scenario keyword arguments for every setting but the network.

    Reads and checks every section, the network's included, and trains
    nothing.  A box or plant the settings cannot make raises ValueError.
    """
    b = _settings(doc["bounds"], "bounds", _BOUNDS, required=_BOUNDS)
    noise = _settings(doc["noise"], "noise", _NOISE, required=_NOISE)
    plant = _kind(doc["plant"], "plant", _PLANTS)
    _kind(doc["network"], "network", _NETWORKS)
    if plant.pop("kind") == "robot":
        plant = RobotPlant(eps_x=noise["eps_x"])
    else:
        plant = VehiclePlant(**plant)
    boxes = [Hypercube(**_settings(ob, f"obstacles[{i}]", _BOX, required=_BOX))
             for i, ob in enumerate(doc.get("obstacles") or [])]
    return dict(
        plant=plant, X=Hypercube(b["x_lo"], b["x_hi"]),
        U=Hypercube(b["u_lo"], b["u_hi"]), unsafe=UnsafeRegion(tuple(boxes)),
        **noise, **_settings(doc["task"], "task", _TASK, required=("x0",)),
        solver=SolverConfig(**_settings(doc.get("solver"), "solver", _SOLVER)),
        planner=PlannerParams(**_settings(doc.get("planner"), "planner",
                                          _PLANNER)),
        **_settings(doc.get("run"), "run", _RUN))


def _build_network(block, X, U, plant, scenario_dir):
    if block["kind"] == "identity_sum":
        return build_identity_sum_network(X, U)
    if block["kind"] == "file":
        if not block.get("path"):
            raise ScenarioError("network kind 'file' needs a 'path'")
        return load_network(os.path.join(scenario_dir, block["path"]))
    net, _, _ = _train_from_block(block, X, U, plant)
    return net


def _train_from_block(block, X, U, plant):
    """Returns (net, eps_x estimate, final mse)."""
    cfg = _kind(block, "network", {"train": _TRAIN})
    del cfg["kind"]
    n = cfg.pop("samples", 20000)
    n_eval = cfg.pop("eval_samples", 4 * n)
    identity = cfg.pop("init", None) is not None
    cfg = TrainConfig(**cfg)
    data = sample_dataset(plant.step, X, U, n, seed=cfg.seed)
    init = (identity_warm_start(X, U, cfg.hidden_sizes, seed=cfg.seed)
            if identity else None)
    log.info("training on %d samples, hidden=%s, %d epochs",
             n, cfg.hidden_sizes, cfg.epochs)
    result = train(cfg, data, init=init)
    eval_data = sample_dataset(plant.step, X, U, n_eval, seed=cfg.seed + 1)
    eps = quantify_error(result.net, eval_data)
    return result.net, eps, result.final_mse


def load_scenario(path, seed_override=None):
    """Parse a YAML scenario file into (Scenario, raw document)."""
    doc = _read_document(path)
    try:
        settings = _read_settings(doc)
        if seed_override is not None:
            settings["seed"] = seed_override
        net = _build_network(doc["network"], settings["X"], settings["U"],
                             settings["plant"],
                             os.path.dirname(os.path.abspath(path)))
        return Scenario(net=net, **settings), doc
    except ValueError as exc:   # a ScenarioError too, with its message
        raise ScenarioError(str(exc))


# ---------------------------------------------------------------------------
# SVG plotting (hand-emitted; first two state dimensions).
# ---------------------------------------------------------------------------

def write_plot_svg(path, scenario, waypoints, logbook, size=640):
    X = scenario.X
    span = max(X.hi[0] - X.lo[0], X.hi[1] - X.lo[1])
    scale = (size - 40) / span

    def sx(v):
        return 20 + (v - X.lo[0]) * scale

    def sy(v):
        # SVG y grows downward; flip so the second state axis points up.
        return size - 20 - (v - X.lo[1]) * scale

    def rect(lo, hi, style):
        w = (hi[0] - lo[0]) * scale
        h = (hi[1] - lo[1]) * scale
        return (f'<rect x="{sx(lo[0]):.2f}" y="{sy(hi[1]):.2f}" '
                f'width="{w:.2f}" height="{h:.2f}" style="{style}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        rect(X.lo, X.hi, "fill:none;stroke:black;stroke-width:1.5"),
    ]
    for box in scenario.unsafe:
        parts.append(rect(box.lo, box.hi,
                          "fill:#d62728;fill-opacity:0.35;stroke:#d62728"))
    for s in logbook.steps:
        if s.box_lo is not None:
            parts.append(rect(s.box_lo, s.box_hi,
                              "fill:#1f77b4;fill-opacity:0.08;"
                              "stroke:#1f77b4;stroke-width:0.4"))
    if waypoints:
        pts = " ".join(f"{sx(w[0]):.2f},{sy(w[1]):.2f}" for w in waypoints)
        parts.append(f'<polyline points="{pts}" style="fill:none;'
                     'stroke:#2ca02c;stroke-width:1;stroke-dasharray:4 3"/>')
        for w in waypoints:
            parts.append(f'<circle cx="{sx(w[0]):.2f}" cy="{sy(w[1]):.2f}" '
                         'r="2" fill="#2ca02c"/>')
    states = [s.x for s in logbook.steps]
    if logbook.steps and logbook.steps[-1].x_next is not None:
        states.append(logbook.steps[-1].x_next)
    if states:
        pts = " ".join(f"{sx(x[0]):.2f},{sy(x[1]):.2f}" for x in states)
        parts.append(f'<polyline points="{pts}" style="fill:none;'
                     'stroke:black;stroke-width:1.2"/>')
        for x in states:
            parts.append(f'<circle cx="{sx(x[0]):.2f}" cy="{sy(x[1]):.2f}" '
                         'r="1.6" fill="black"/>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


def write_plan_csv(path, waypoints):
    with open(path, "w") as f:
        dim = waypoints[0].shape[0] if waypoints else 0
        f.write("waypoint," + ",".join(f"x{j}" for j in range(dim)) + "\n")
        for i, w in enumerate(waypoints):
            f.write(f"{i}," + ",".join(f"{v:.17g}" for v in w) + "\n")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _solve_ms(logbook) -> list:
    return [s.solve_ms for s in logbook.steps if s.status == "Optimal"]


def cmd_simulate(args) -> int:
    if args.seeds is not None and args.seeds <= 0:
        print("--seeds must be positive", file=sys.stderr)
        return 1
    scenario, _ = load_scenario(args.scenario, seed_override=args.seed)
    os.makedirs(args.out, exist_ok=True)
    waypoints = plan_waypoints(scenario)
    log.info("plan has %d waypoints", len(waypoints))
    write_plan_csv(os.path.join(args.out, "plan.csv"), waypoints)
    if args.seeds is not None:
        return _simulate_seeds(scenario, waypoints, args.seeds, args.out)
    logbook = run_episode(scenario, waypoints=list(waypoints))
    logbook.to_csv(os.path.join(args.out, "trajectory.csv"))
    write_plot_svg(os.path.join(args.out, "plot.svg"), scenario,
                   waypoints, logbook)
    violations = logbook.safety_violations(scenario.unsafe)
    ms = _solve_ms(logbook)
    print(f"status: {logbook.status}")
    print(f"steps: {len(logbook.steps)}")
    print(f"safety violations: {len(violations)}")
    if ms:
        print(f"median solve time: {float(np.median(ms)):.1f} ms")
    if logbook.status == GOAL_REACHED:
        return 0
    return 3 if logbook.status == STEP_LIMIT else 2


def _simulate_seeds(scenario, waypoints, n, out) -> int:
    """Replay one plan under the run seeds s .. s+n-1, s the plan's seed.

    Exit code 0 iff every episode reaches the goal with zero violations.
    """
    all_ok = True
    for seed in range(scenario.seed, scenario.seed + n):
        s = replace(scenario, seed=seed)
        logbook = run_episode(s, waypoints=list(waypoints))
        logbook.to_csv(os.path.join(out, f"trajectory_seed{seed}.csv"))
        violations = len(logbook.safety_violations(s.unsafe))
        ms = _solve_ms(logbook)
        med = float(np.median(ms)) if ms else float("nan")
        print(f"seed {seed}: {logbook.status} steps={len(logbook.steps)} "
              f"violations={violations} median_solve={med:.1f} ms")
        all_ok &= logbook.status == GOAL_REACHED and not violations
    return 0 if all_ok else 2


def cmd_train(args) -> int:
    doc = _read_document(args.scenario)
    s = _read_settings(doc)
    if doc["network"]["kind"] != "train":
        print("scenario's network section does not request training",
              file=sys.stderr)
        return 1
    net, eps, mse = _train_from_block(doc["network"], s["X"], s["U"],
                                      s["plant"])
    save_network(net, args.out)
    print(f"saved network: {args.out}")
    print("eps_x:", " ".join(f"{v:.6g}" for v in eps))
    print(f"final mse: {mse:.6g}")
    return 0


def cmd_verify(args) -> int:
    if args.samples <= 0:
        print("--samples must be positive", file=sys.stderr)
        return 1
    scenario, _ = load_scenario(args.scenario, seed_override=args.seed)
    # The first step of an episode: the first measurement and waypoint.
    y = measure(scenario.x0, scenario.eps_y,
                np.random.default_rng(scenario.seed))
    p = scenario.tracking_problem(y, plan_waypoints(scenario)[0])
    decision = solve_tracking(p, scenario.solver)
    results = []

    # 1. Fixing the commanded control, the MILP's network output box must
    #    coincide with direct interval propagation.
    fixed = solve_tracking(p, scenario.solver, fix_u=decision.u_cmd)
    z_lo, z_hi = input_boxes(p, decision.u_cmd)
    ref_lo, ref_hi = output_bounds(p.net, z_lo, z_hi)
    err = max(float(np.max(np.abs(fixed.nn_out_box.lo - ref_lo))),
              float(np.max(np.abs(fixed.nn_out_box.hi - ref_hi))))
    results.append(("box-equality", err <= 1e-6, f"max dev {err:.2e}"))

    # 2. Sampled true network outputs must land inside the output box.
    rng = np.random.default_rng(scenario.seed + 17)
    out = forward_batch(p.net, rng.uniform(z_lo, z_hi,
                                           (args.samples, z_lo.size)))
    worst = max(0.0, float(np.max(ref_lo - out)), float(np.max(out - ref_hi)))
    results.append(("containment", worst <= 1e-9, f"max escape {worst:.2e}"))

    # 3. The MILP optimum must match a brute-force control grid.
    try:
        g = grid_control_search(p, 0.005)
        gap = g["best_cost"] - decision.cost
        ok = -1e-6 <= gap <= 0.02
        detail = f"grid-milp gap {gap:.2e}"
    except NoFeasibleGridPoint:
        ok, detail = False, "grid found no feasible control"
    results.append(("grid-vs-milp", ok, detail))

    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
        all_ok &= ok
    return 0 if all_ok else 2


def cmd_solve_once(args) -> int:
    scenario, _ = load_scenario(args.scenario)
    y = (np.array([float(v) for v in args.y.split(",")])
         if args.y else scenario.x0)
    if args.x_ref:
        x_ref = np.array([float(v) for v in args.x_ref.split(",")])
    elif scenario.x_ref is not None:
        x_ref = scenario.x_ref
    else:
        x_ref = scenario.xg
    d = solve_tracking(scenario.tracking_problem(y, x_ref), scenario.solver)
    print("u:", " ".join(f"{v:.9g}" for v in d.u_cmd))
    print("input box:", d.input_box.lo, d.input_box.hi)
    print("nn output box:", d.nn_out_box.lo, d.nn_out_box.hi)
    print("safe box:", d.safe_box.lo, d.safe_box.hi)
    print(f"cost: {d.cost:.9g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="milp-safeguard",
        description="Safe NN-model tracking control via MILP")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a closed-loop episode")
    p_sim.add_argument("scenario")
    p_sim.add_argument("--out", default="out")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--seeds", type=int, default=None,
                       help="plan once, then replay N episodes under the "
                            "run seeds s .. s+N-1")
    p_sim.set_defaults(func=cmd_simulate)

    p_tr = sub.add_parser("train", help="train the scenario's network")
    p_tr.add_argument("scenario")
    p_tr.add_argument("--out", default="network.json")
    p_tr.set_defaults(func=cmd_train)

    p_ver = sub.add_parser("verify", help="oracle checks on the first step")
    p_ver.add_argument("scenario")
    p_ver.add_argument("--samples", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_so = sub.add_parser("solve-once", help="one tracking solve")
    p_so.add_argument("scenario")
    p_so.add_argument("--y", default=None, help="measurement, comma-separated")
    p_so.add_argument("--x-ref", default=None, help="reference, comma-separated")
    p_so.set_defaults(func=cmd_solve_once)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.ERROR,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    except _RUN_FAILURES as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
