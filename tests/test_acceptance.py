"""End-to-end acceptance checks.

Each test prints one PASS/FAIL summary line (bypassing capture) so a full
run reads as a checklist.  The heavyweight artifacts (robot seed sweep,
vehicle training + episode) are computed once and shared.
"""

import functools
import itertools
import math
import os
import tempfile
import time
from dataclasses import replace

import numpy as np
import yaml

from milp_safeguard.cli import _train_from_block, load_scenario
from milp_safeguard.encoder import (
    SolverInfeasible,
    TrackingProblem,
    solve_tracking,
)
from milp_safeguard.learner import gradients, init_params, net_from_params
from milp_safeguard.milp import (
    EQ,
    GE,
    INF,
    LE,
    INFEASIBLE,
    OPTIMAL,
    ModelBuilder,
    SolverConfig,
    solve,
)
from milp_safeguard.nn_model import (
    build_identity_sum_network,
    output_bounds,
    save_network,
)
from milp_safeguard.oracle import (
    NoFeasibleGridPoint,
    enumerate_binary_feasibility,
    grid_control_search,
)
from milp_safeguard.plants import VehiclePlant
from milp_safeguard.runtime import GOAL_REACHED, plan_waypoints, run_episode
from milp_safeguard.sets import Hypercube, UnsafeRegion

from test_oracle import _control_bound_model, _obstacle_model, \
    _relu_neuron_model

_HERE = os.path.dirname(__file__)
ROBOT_YAML = os.path.join(_HERE, os.pardir, "scenarios", "robot_maze.yaml")
VEHICLE_YAML = os.path.join(_HERE, os.pardir, "scenarios",
                            "vehicle_corridor.yaml")


def _announce(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@functools.lru_cache(maxsize=None)
def robot_sweep():
    """Plan once, replay the maze under ten disturbance realizations."""
    t0 = time.perf_counter()
    base, _ = load_scenario(ROBOT_YAML)
    waypoints = plan_waypoints(base)
    logs = []
    for seed in range(10):
        s = replace(base, seed=seed)
        logs.append((s, run_episode(s, waypoints=list(waypoints))))
    return logs, time.perf_counter() - t0


@functools.lru_cache(maxsize=None)
def vehicle_pipeline():
    """Train the corridor net once, then run the closed-loop episode."""
    t0 = time.perf_counter()
    with open(VEHICLE_YAML) as f:
        doc = yaml.safe_load(f)
    b = doc["bounds"]
    X = Hypercube(np.asarray(b["x_lo"], float), np.asarray(b["x_hi"], float))
    U = Hypercube(np.asarray(b["u_lo"], float), np.asarray(b["u_hi"], float))
    plant = VehiclePlant(wheelbase=float(doc["plant"]["l"]),
                         dt=float(doc["plant"]["dt"]))
    net, eps, _ = _train_from_block(doc["network"], X, U, plant)

    tmp = tempfile.mkdtemp(prefix="accept_vehicle_")
    net_path = os.path.join(tmp, "net.json")
    save_network(net, net_path)
    doc["network"] = {"kind": "file", "path": net_path}
    scen_path = os.path.join(tmp, "scenario.yaml")
    with open(scen_path, "w") as f:
        yaml.safe_dump(doc, f)
    scenario, _ = load_scenario(scen_path)
    log = run_episode(scenario)
    return eps, scenario, log, time.perf_counter() - t0


def test_criterion_1_robot_maze_safety(capsys):
    logs, elapsed = robot_sweep()
    violations = sum(len(log.safety_violations(s.unsafe, tol=1e-9))
                     for s, log in logs)
    reached = sum(log.status == GOAL_REACHED for _, log in logs)
    ok = violations == 0 and reached == 10 and elapsed < 300
    _announce(capsys, "criterion 1 (robot maze, 10 seeds)", ok,
              f"{reached}/10 reached goal, {violations} violations, "
              f"{elapsed:.1f}s")


def test_criterion_2_box_equality_oracle(capsys):
    t0 = time.perf_counter()
    X = Hypercube(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
    U = Hypercube(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    eps = np.array([0.05, 0.05])
    hiddens = [(4,), (8,), (6, 3), (8, 4)]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(100):
        Ws, bs = init_params(4, hiddens[i % len(hiddens)], 2, seed=i)
        # Shrink the random weights so output boxes stay well inside X.
        net = net_from_params([0.3 * W for W in Ws], bs)
        y = rng.uniform(-2.0, 2.0, size=2)
        u_fix = rng.uniform(-0.9, 0.9, size=2)
        p = TrackingProblem(net=net, X=X, U=U, unsafe=UnsafeRegion(()),
                            eps_x=eps, eps_y=eps, eps_u=eps,
                            y_k=y, x_ref=y)
        d = solve_tracking(p, fix_u=u_fix)
        x_box = Hypercube(np.maximum(X.lo, y - eps),
                          np.minimum(X.hi, y + eps))
        u_box = Hypercube(np.maximum(U.lo, u_fix - eps),
                          np.minimum(U.hi, u_fix + eps))
        z_box = x_box.concat(u_box)
        out = Hypercube(*output_bounds(net, z_box.lo, z_box.hi))
        worst = max(worst,
                    float(np.max(np.abs(d.nn_out_box.lo - out.lo))),
                    float(np.max(np.abs(d.nn_out_box.hi - out.hi))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 120
    _announce(capsys, "criterion 2 (box-equality oracle, 100 nets)", ok,
              f"max deviation {worst:.2e}, {elapsed:.1f}s")


def _random_robot_instance(rng, with_obstacle):
    X = Hypercube(np.array([-1.0, -1.0]), np.array([10.0, 10.0]))
    U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
    eps = np.array([0.05, 0.05])
    net = build_identity_sum_network(X, U)
    while True:
        y = rng.uniform(1.5, 8.5, size=2)
        x_ref = y + rng.uniform(-0.35, 0.35, size=2)
        boxes = ()
        if with_obstacle:
            q = int(rng.integers(0, 2))
            side = 1.0 if rng.random() < 0.5 else -1.0
            lo = np.array([-1.0, -1.0])
            hi = np.array([10.0, 10.0])
            lo[q] = y[q] + side * rng.uniform(0.1, 0.25)
            hi[q] = lo[q] + rng.uniform(0.3, 0.8)
            if side < 0:
                lo[q], hi[q] = lo[q] - (hi[q] - lo[q]), lo[q]
            # Leave a lateral escape so some control stays feasible.
            other = 1 - q
            if rng.random() < 0.5:
                hi[other] = y[other] + rng.uniform(0.05, 0.2)
            else:
                lo[other] = y[other] - rng.uniform(0.05, 0.2)
            boxes = (Hypercube(lo, hi),)
        try:
            return TrackingProblem(net=net, X=X, U=U,
                                   unsafe=UnsafeRegion(boxes),
                                   eps_x=eps, eps_y=eps, eps_u=eps,
                                   y_k=y, x_ref=x_ref)
        except ValueError:
            continue


def test_criterion_3_grid_vs_milp_optimality(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_under = -np.inf   # MILP must never beat the grid by > 1e-6
    worst_over = -np.inf    # grid must never beat the MILP by > 0.02
    done = 0
    for with_obstacle in (False, True):
        count = 0
        while count < 20:
            p = _random_robot_instance(rng, with_obstacle)
            try:
                d = solve_tracking(p)
                g = grid_control_search(p, 0.005)
            except (SolverInfeasible, NoFeasibleGridPoint):
                continue
            worst_under = max(worst_under, d.cost - g["best_cost"])
            worst_over = max(worst_over, g["best_cost"] - d.cost)
            count += 1
            done += 1
    elapsed = time.perf_counter() - t0
    ok = worst_under <= 1e-6 and worst_over <= 0.02 and elapsed < 600
    _announce(capsys, "criterion 3 (grid vs MILP, 20+20 instances)", ok,
              f"{done} instances, milp-grid {worst_under:.2e}, "
              f"grid-milp {worst_over:.2e}, {elapsed:.1f}s")


def _random_small_milp(rng):
    b = ModelBuilder()
    n_cont = int(rng.integers(1, 4))
    n_bin = int(rng.integers(1, 9))
    xs = []
    for _ in range(n_cont):
        lo = float(rng.uniform(-5.0, 0.0))
        xs.append(b.add_continuous(lo, lo + float(rng.uniform(0.5, 6.0))))
    ds = [b.add_binary() for _ in range(n_bin)]
    allv = xs + ds
    for _ in range(int(rng.integers(1, 5))):
        k = int(rng.integers(1, len(allv) + 1))
        idx = rng.choice(len(allv), size=k, replace=False)
        rel = (LE, GE, EQ)[int(rng.integers(0, 3))]
        b.add_constraint({allv[i]: float(rng.uniform(-3, 3)) for i in idx},
                         rel, float(rng.uniform(-4, 4)))
    b.set_objective({v: float(rng.uniform(-2, 2)) for v in allv})
    return b.build()


def _enumeration_optimum(model, config):
    bin_idx = np.flatnonzero(model.is_binary)
    best = INF
    for bits in itertools.product((0.0, 1.0), repeat=len(bin_idx)):
        lb = model.lb.copy()
        ub = model.ub.copy()
        lb[bin_idx] = bits
        ub[bin_idx] = bits
        r = solve(replace(model, lb=lb, ub=ub), config)
        if r.status == OPTIMAL:
            best = min(best, r.objective_value)
    return best


def test_criterion_4_milp_vs_enumeration(capsys):
    t0 = time.perf_counter()
    cfg = SolverConfig()
    rng = np.random.default_rng(99)
    mismatches = 0
    nondeterministic = 0
    for i in range(500):
        model = _random_small_milp(rng)
        sol = solve(model, cfg)
        ref = _enumeration_optimum(model, cfg)
        if sol.status == OPTIMAL:
            if not np.isfinite(ref) or abs(sol.objective_value - ref) > 1e-6:
                mismatches += 1
        elif sol.status == INFEASIBLE:
            if np.isfinite(ref):
                mismatches += 1
        else:
            mismatches += 1
        if i < 50:
            again = solve(model, cfg)
            same = (again.status == sol.status
                    and (sol.values is None
                         or np.array_equal(again.values, sol.values)))
            nondeterministic += not same
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and nondeterministic == 0 and elapsed < 120
    _announce(capsys, "criterion 4 (500 random MILPs vs enumeration)", ok,
              f"{mismatches} mismatches, {nondeterministic} nondeterministic,"
              f" {elapsed:.1f}s")


def test_criterion_5_vehicle_pipeline(capsys):
    eps, scenario, log, elapsed = vehicle_pipeline()
    target = np.array([0.05, 0.05, math.radians(3.0)])
    eps_ok = bool(np.all(eps <= target))
    violations = log.safety_violations(scenario.unsafe, tol=1e-9)
    run_ok = log.status == GOAL_REACHED and not violations
    ok = eps_ok and run_ok and elapsed < 900
    _announce(capsys, "criterion 5 (vehicle train + corridor)", ok,
              f"eps_x {np.array2string(eps, precision=4)} vs "
              f"{np.array2string(target, precision=4)}, status {log.status},"
              f" {len(violations)} violations, {elapsed:.0f}s")


def test_criterion_6_solve_time_sanity(capsys):
    logs, _ = robot_sweep()
    _, _, veh_log, _ = vehicle_pipeline()
    robot_ms = [st.solve_ms for _, log in logs for st in log.steps
                if st.status == "Optimal"]
    veh_ms = [st.solve_ms for st in veh_log.steps if st.status == "Optimal"]
    med_r = float(np.median(robot_ms))
    med_v = float(np.median(veh_ms))
    ok = med_r < 10_000 and med_v < 10_000
    _announce(capsys, "criterion 6 (median solve time)", ok,
              f"robot {med_r:.0f} ms, vehicle {med_v:.0f} ms (gate: <10s)")


def test_criterion_7_gradient_check(capsys):
    rng = np.random.default_rng(0)
    Ws, bs = init_params(3, (5, 4), 2, seed=1)
    Z = rng.uniform(-1, 1, size=(10, 3))
    Y = rng.uniform(-1, 1, size=(10, 2))

    def loss():
        h = Z
        for W, b in zip(Ws[:-1], bs[:-1]):
            h = np.maximum(0.0, h @ W.T + b)
        pred = h @ Ws[-1].T + bs[-1]
        return float(np.mean(np.sum((pred - Y) ** 2, axis=1)))

    gWs, gbs = gradients(Ws, bs, Z, Y)
    step = 1e-6
    worst = 0.0
    for layer in range(len(Ws)):
        for arr, grad in ((Ws[layer], gWs[layer]), (bs[layer], gbs[layer])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                up = loss()
                arr[idx] = orig - step
                dn = loss()
                arr[idx] = orig
                fd = (up - dn) / (2 * step)
                denom = max(abs(fd), abs(grad[idx]), 1e-8)
                worst = max(worst, abs(fd - grad[idx]) / denom)
    ok = worst < 1e-4
    _announce(capsys, "criterion 7 (gradient check)", ok,
              f"max relative error {worst:.2e}")


def test_criterion_8_binary_case_enumeration(capsys):
    checks = []

    m, v = _relu_neuron_model(-2.0, 3.0)
    checks.append(enumerate_binary_feasibility(
        m, {v["ahat"]: -1.0, v["bhat"]: 2.0, v["a"]: 0.0, v["b"]: 2.0})
        == {(0, 1, 0)})
    m, v = _relu_neuron_model(-2.0, 3.0)
    checks.append(enumerate_binary_feasibility(
        m, {v["ahat"]: 1.0, v["bhat"]: 2.0, v["a"]: 1.0, v["b"]: 2.0})
        == {(0, 0, 1)})
    m, v = _relu_neuron_model(-2.0, 3.0)
    checks.append(enumerate_binary_feasibility(
        m, {v["ahat"]: -2.0, v["bhat"]: -1.0, v["a"]: 0.0, v["b"]: 0.0})
        == {(1, 0, 0)})

    m, u, a0 = _control_bound_model(-0.25, 0.25, 0.05)
    checks.append(enumerate_binary_feasibility(m, {u: 0.1, a0: 0.05})
                  == {(0,)})
    m, u, a0 = _control_bound_model(-0.25, 0.25, 0.05)
    checks.append(enumerate_binary_feasibility(m, {u: -0.22, a0: -0.25})
                  == {(1,)})

    m, x_lo, x_hi = _obstacle_model([0, 0], [10, 10], [2, 2], [3, 3], 2)
    checks.append(enumerate_binary_feasibility(
        m, {x_lo[0]: 2.2, x_lo[1]: 2.2, x_hi[0]: 2.8, x_hi[1]: 2.8})
        == set())
    m, x_lo, x_hi = _obstacle_model([0, 0], [10, 10], [2, 2], [3, 3], 2)
    checks.append(enumerate_binary_feasibility(
        m, {x_lo[0]: 0.5, x_lo[1]: 0.5, x_hi[0]: 1.0, x_hi[1]: 1.0})
        == {(1, 1, 0, 0)})

    ok = all(checks)
    _announce(capsys, "criterion 8 (binary case enumeration)", ok,
              f"{sum(checks)}/{len(checks)} fixtures match")
