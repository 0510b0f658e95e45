"""Command-line front end: simulate, train, verify, solve-once.

Scenario files are YAML with sections plant, network, bounds, noise,
obstacles, task, solver, run, planner.  Lengths are meters, angles
radians.  Exit codes: 0 success/GoalReached, 1 usage or config error,
2 infeasible or inadmissible episode, failed seed sweep or failed
verification, 3 step limit.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np
import yaml

from milp_safeguard.encoder import solve_tracking
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
    forward,
    load_network,
    output_bounds,
    save_network,
)
from milp_safeguard.oracle import (
    GridSpec,
    NoFeasibleGridPoint,
    grid_control_search,
)
from milp_safeguard.plants import RobotPlant, VehiclePlant, measure
from milp_safeguard.runtime import (
    GOAL_REACHED,
    STEP_LIMIT,
    PlannerParams,
    Scenario,
    plan_waypoints,
    run_episode,
)
from milp_safeguard.sets import Hypercube, UnsafeRegion, intersect, \
    measurement_box

log = logging.getLogger("milp_safeguard")


class ScenarioError(ValueError):
    """The scenario file is malformed or inconsistent."""


def _vec(doc, key, section):
    try:
        return np.asarray(doc[key], dtype=float)
    except KeyError:
        raise ScenarioError(f"missing '{key}' in section '{section}'")
    except (TypeError, ValueError):
        raise ScenarioError(f"'{section}.{key}' is not a numeric vector")


def _build_plant(doc):
    """The plant section's plant; the robot's disturbance bound is the
    noise section's eps_x."""
    pl = doc["plant"]
    kind = pl.get("kind")
    if kind == "robot":
        return RobotPlant(eps_x=_vec(doc["noise"], "eps_x", "noise"))
    if kind == "vehicle":
        return VehiclePlant(wheelbase=float(pl.get("l", 5.0)),
                            dt=float(pl.get("dt", 0.1)))
    raise ScenarioError(f"unknown plant kind: {kind!r}")


def _build_network(doc, X, U, plant, scenario_dir):
    kind = doc.get("kind")
    if kind == "identity_sum":
        return build_identity_sum_network(X, U)
    if kind == "file":
        path = doc.get("path")
        if not path:
            raise ScenarioError("network kind 'file' needs a 'path'")
        if not os.path.isabs(path):
            path = os.path.join(scenario_dir, path)
        return load_network(path)
    if kind == "train":
        net, _, _ = _train_from_block(doc, X, U, plant)
        return net
    raise ScenarioError(f"unknown network kind: {kind!r}")


def _train_from_block(doc, X, U, plant):
    """Returns (net, eps_x estimate, final mse)."""
    cfg = TrainConfig(
        epochs=int(doc.get("epochs", 200)),
        learning_rate=float(doc.get("learning_rate", 1e-2)),
        batch_size=int(doc.get("batch_size", 64)),
        seed=int(doc.get("seed", 0)),
        hidden_sizes=tuple(doc.get("hidden", [8, 4])),
        lr_decay=float(doc.get("lr_decay", 0.5)),
        decay_every=int(doc.get("decay_every", 50)),
    )
    n = int(doc.get("samples", 20000))
    data = sample_dataset(plant.step, X, U, n, seed=cfg.seed)
    init = None
    if doc.get("init") == "identity":
        init = identity_warm_start(X, U, cfg.hidden_sizes, seed=cfg.seed)
    log.info("training on %d samples, hidden=%s, %d epochs",
             n, cfg.hidden_sizes, cfg.epochs)
    result = train(cfg, data, init=init)
    n_eval = int(doc.get("eval_samples", 4 * n))
    eval_data = sample_dataset(plant.step, X, U, n_eval, seed=cfg.seed + 1)
    eps = quantify_error(result.net, eval_data)
    return result.net, eps, result.final_mse


def _read_document(path):
    """The YAML scenario document, with every required section present."""
    try:
        with open(path) as f:
            doc = yaml.safe_load(f)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}")
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario is not valid YAML: {exc}")
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a mapping of sections")
    for section in ("plant", "network", "bounds", "noise", "task"):
        if section not in doc:
            raise ScenarioError(f"missing section '{section}'")
    return doc


def _sets_and_plant(doc):
    """(X, U, plant) from the bounds and plant sections.

    The train command needs only these, and must not build the network.
    """
    b = doc["bounds"]
    try:
        X = Hypercube(_vec(b, "x_lo", "bounds"), _vec(b, "x_hi", "bounds"))
        U = Hypercube(_vec(b, "u_lo", "bounds"), _vec(b, "u_hi", "bounds"))
    except ValueError as exc:
        raise ScenarioError(f"bad bounds: {exc}")
    return X, U, _build_plant(doc)


def load_scenario(path, seed_override=None):
    """Parse a YAML scenario file into (Scenario, raw document)."""
    doc = _read_document(path)
    X, U, plant = _sets_and_plant(doc)

    nz = doc["noise"]
    eps_x = _vec(nz, "eps_x", "noise")
    eps_y = _vec(nz, "eps_y", "noise")
    eps_u = _vec(nz, "eps_u", "noise")

    boxes = []
    for i, ob in enumerate(doc.get("obstacles") or []):
        try:
            boxes.append(Hypercube(_vec(ob, "lo", f"obstacles[{i}]"),
                                   _vec(ob, "hi", f"obstacles[{i}]")))
        except ValueError as exc:
            raise ScenarioError(f"bad obstacle {i}: {exc}")
    unsafe = UnsafeRegion(tuple(boxes))

    scenario_dir = os.path.dirname(os.path.abspath(path))
    net = _build_network(doc["network"], X, U, plant, scenario_dir)

    task = doc["task"]
    x0 = _vec(task, "x0", "task")
    xg = (np.asarray(task["xg"], dtype=float) if "xg" in task else None)
    x_ref = (np.asarray(task["x_ref"], dtype=float)
             if "x_ref" in task else None)

    sv = doc.get("solver") or {}
    solver = SolverConfig(
        integrality_tol=float(sv.get("integrality_tol", 1e-6)),
        relative_gap=float(sv.get("relative_gap", 1e-6)),
        max_nodes=int(sv.get("max_nodes", 10**6)),
        max_simplex_iters=int(sv.get("max_simplex_iters", 10**5)),
    )
    run = doc.get("run") or {}
    seed = int(run.get("seed", 0)) if seed_override is None else seed_override
    pl = doc.get("planner") or {}
    planner = PlannerParams(
        max_iters=int(pl.get("max_iters", 20000)),
        goal_bias=float(pl.get("goal_bias", 0.1)),
        clearance=float(pl.get("clearance", 0.0)),
        goal_tol=(np.asarray(pl["goal_tol"], dtype=float)
                  if "goal_tol" in pl else None),
        u_margin=(np.asarray(pl["u_margin"], dtype=float)
                  if "u_margin" in pl else None),
    )
    try:
        scenario = Scenario(
            plant=plant, net=net, X=X, U=U, unsafe=unsafe,
            eps_x=eps_x, eps_y=eps_y, eps_u=eps_u,
            x0=x0, xg=xg, x_ref=x_ref, seed=seed, solver=solver,
            max_steps=int(run.get("max_steps", 500)), planner=planner,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc))
    return scenario, doc


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
    block = doc["network"]
    if block.get("kind") != "train":
        print("scenario's network section does not request training",
              file=sys.stderr)
        return 1
    net, eps, mse = _train_from_block(block, *_sets_and_plant(doc))
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
    x_box = measurement_box(p.y_k, p.eps_y, p.X)
    u_box = intersect(Hypercube(decision.u_cmd - p.eps_u,
                                decision.u_cmd + p.eps_u), p.U)
    z_box = x_box.concat(u_box)
    ref_lo, ref_hi = output_bounds(p.net, z_box.lo, z_box.hi)
    err = max(float(np.max(np.abs(fixed.nn_out_box.lo - ref_lo))),
              float(np.max(np.abs(fixed.nn_out_box.hi - ref_hi))))
    results.append(("box-equality", err <= 1e-6, f"max dev {err:.2e}"))

    # 2. Sampled true network outputs must land inside the output box.
    rng = np.random.default_rng(scenario.seed + 17)
    worst = 0.0
    for z in z_box.sample(rng, args.samples):
        out = forward(p.net, z)
        worst = max(worst,
                    float(np.max(ref_lo - out)),
                    float(np.max(out - ref_hi)))
    results.append(("containment", worst <= 1e-9, f"max escape {worst:.2e}"))

    # 3. The MILP optimum must match a brute-force control grid.
    try:
        g = grid_control_search(p, GridSpec(np.array([0.005])))
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
    scenario, _ = load_scenario(args.scenario, seed_override=args.seed)
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


def _setup_logging(verbose):
    level_name = os.environ.get("MILP_SAFEGUARD_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(level_name, logging.ERROR)
    if verbose:
        level = min(level, logging.INFO)
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


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
    p_so.add_argument("--seed", type=int, default=None)
    p_so.set_defaults(func=cmd_solve_once)

    args = parser.parse_args(argv)
    _setup_logging(args.verbose)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
