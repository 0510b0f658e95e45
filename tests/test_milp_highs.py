"""Differential tests of milp.solve against HiGHS.

scipy is a test-only dependency: the whole module is skipped without it.
Statuses must agree and optimal objectives match within
1e-6 * max(1, |obj|), the solver's own default relative gap.  The MILPs
(scipy.optimize.milp, 1e-12 relative gap, presolve off) are random
ones with 20-30 binaries (more than enumeration can check), and tracking
MILPs of the robot maze and of the vehicle corridor's committed net, also
with random control sets and eps_u from 0 to beyond their width.  Two chains of
tracking MILPs (the first steps of the seed-0 robot episode, and points
along the committed corridor plan) are solved as the control loop solves
them, each root warm from the previous model's, and must match within
1e-7.  The LPs
(scipy.optimize.linprog, presolve off) are random models without binaries,
with boxed, lower-bounded, upper-bounded and free columns, each cost
pointing at a finite bound of its column (a free column costs nothing), so
that they reach the dual simplex's free-column and infeasibility paths.
"""

import csv
import os
from dataclasses import replace

import numpy as np
import pytest

scipy_optimize = pytest.importorskip("scipy.optimize")

from milp_safeguard.cli import load_scenario  # noqa: E402
from milp_safeguard.encoder import build_tracking_model  # noqa: E402
from milp_safeguard.milp import (  # noqa: E402
    EQ,
    GE,
    INF,
    INFEASIBLE,
    LE,
    OPTIMAL,
    ModelBuilder,
    _standard_form,
    solve,
)
from milp_safeguard.runtime import run_episode  # noqa: E402
from milp_safeguard.sets import Hypercube  # noqa: E402

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def dense_rows(model):
    """(A, lo, hi): the constraints as lo <= A x <= hi."""
    A = np.zeros((len(model.constraints), model.num_vars))
    lo = np.full(len(model.constraints), -np.inf)
    hi = np.full(len(model.constraints), np.inf)
    for r, c in enumerate(model.constraints):
        A[r, c.idx] = c.coef
        if c.rel != LE:
            lo[r] = c.rhs
        if c.rel != GE:
            hi[r] = c.rhs
    return A, lo, hi


def highs(model):
    """(status, objective) of the model under HiGHS, presolve off as for
    the LPs: HiGHS's presolve can return a point that breaks a row by more
    than the gates allow.  HiGHS's own optimum must satisfy the model."""
    A, lo, hi = dense_rows(model)
    res = scipy_optimize.milp(
        model.objective, integrality=model.is_binary.astype(int),
        bounds=scipy_optimize.Bounds(model.lb, model.ub),
        constraints=scipy_optimize.LinearConstraint(A, lo, hi),
        options={"mip_rel_gap": 1e-12, "presolve": False})
    status = {0: OPTIMAL, 2: INFEASIBLE}.get(res.status, f"highs:{res.status}")
    if status == OPTIMAL:
        assert model.constraint_violation(res.x) <= 1e-6
    return status, (res.fun if res.status == 0 else None)


def assert_matches_highs(model):
    sol = solve(model)
    status, obj = highs(model)
    assert sol.status == status
    if status == OPTIMAL:
        assert abs(sol.objective_value - obj) <= 1e-6 * max(1.0, abs(obj))
        assert model.constraint_violation(sol.values) <= 1e-6
    return sol


def random_milp(rng):
    """20-30 binaries and a few continuous variables in [-2, 2].  Rows are
    satisfied by a random point, with slack, except for one in twenty whose
    right-hand side is random, so that some models are infeasible."""
    b = ModelBuilder()
    n_bin = int(rng.integers(20, 31))
    n_cont = int(rng.integers(2, 6))
    allv = ([b.add_binary() for _ in range(n_bin)]
            + [b.add_continuous(-2.0, 2.0) for _ in range(n_cont)])
    point = np.concatenate([rng.integers(0, 2, n_bin),
                            rng.uniform(-2.0, 2.0, n_cont)])
    for _ in range(int(rng.integers(8, 15))):
        idx = rng.choice(len(allv), size=int(rng.integers(4, 12)), replace=False)
        coef = np.round(rng.uniform(-4.0, 4.0, idx.size), 1)
        lhs = float(coef @ point[idx])
        rel = (LE, GE, EQ)[int(rng.choice(3, p=[0.45, 0.45, 0.1]))]
        slack = float(rng.uniform(0.0, 2.0))
        rhs = lhs + slack if rel == LE else lhs - slack if rel == GE else lhs
        if rng.random() < 0.05:
            rhs = float(rng.uniform(-10.0, 10.0))
        b.add_constraint(dict(zip(idx.tolist(), coef.tolist())), rel, round(rhs, 3))
    b.set_objective({v: float(np.round(rng.uniform(-3.0, 3.0), 2)) for v in allv})
    return b.build()


def test_random_milps_match_highs():
    rng = np.random.default_rng(0)
    statuses = [assert_matches_highs(random_milp(rng)).status for _ in range(20)]
    assert OPTIMAL in statuses and INFEASIBLE in statuses


def highs_lp(model):
    """(status, objective) of the model's LP relaxation under HiGHS."""
    A, lo, hi = dense_rows(model)
    eq = lo == hi
    A_ub = np.vstack([A[np.isfinite(hi) & ~eq], -A[np.isfinite(lo) & ~eq]])
    b_ub = np.concatenate([hi[np.isfinite(hi) & ~eq], -lo[np.isfinite(lo) & ~eq]])
    res = scipy_optimize.linprog(
        model.objective, A_ub=A_ub if len(b_ub) else None,
        b_ub=b_ub if len(b_ub) else None,
        A_eq=A[eq] if eq.any() else None, b_eq=lo[eq] if eq.any() else None,
        bounds=list(zip(model.lb, model.ub)), method="highs",
        options={"presolve": False})
    status = {0: OPTIMAL, 2: INFEASIBLE}.get(res.status, f"highs:{res.status}")
    return status, (res.fun if res.status == 0 else None)


def random_lp(rng):
    """2-8 columns, each boxed, lower-bounded, upper-bounded or free.  A
    boxed column's cost has either sign, a lower-bounded one's is positive,
    an upper-bounded one's negative and a free one's zero.  Rows are
    satisfied by a random point within the column bounds, with slack,
    except for one in four whose right-hand side is random."""
    b = ModelBuilder()
    cols, point, costs = [], [], []
    for _ in range(int(rng.integers(2, 9))):
        lo, hi = sorted(np.round(rng.uniform(-3.0, 3.0, 2), 1))
        kind = int(rng.choice(4, p=[0.5, 0.2, 0.2, 0.1]))
        cols.append(b.add_continuous(lo if kind in (0, 1) else -INF,
                                     hi if kind in (0, 2) else INF))
        point.append(rng.uniform(lo, hi))
        cost = float(np.round(rng.uniform(-3.0, 3.0), 1))
        costs.append((cost, abs(cost), -abs(cost), 0.0)[kind])
    for _ in range(int(rng.integers(1, 7))):
        coef = {j: float(rng.integers(-3, 4)) for j in cols if rng.random() < 0.6}
        rel = (LE, GE, EQ)[int(rng.choice(3, p=[0.4, 0.4, 0.2]))]
        lhs = sum(v * point[j] for j, v in coef.items())
        sign = 1.0 if rel == LE else -1.0 if rel == GE else 0.0
        rhs = round(lhs + sign * float(rng.uniform(0.0, 2.0)), 2)
        if rng.random() < 0.25:
            rhs = float(rng.integers(-5, 6))
        b.add_constraint(coef, rel, rhs)
    b.set_objective(dict(zip(cols, costs)))
    return b.build()


def test_random_lps_match_highs():
    rng = np.random.default_rng(0)
    statuses = []
    for _ in range(200):
        model = random_lp(rng)
        r = solve(model)
        status, obj = highs_lp(model)
        assert r.status == status
        if status == OPTIMAL:
            assert abs(r.objective_value - obj) <= 1e-6 * max(1.0, abs(obj))
            assert model.constraint_violation(r.values) <= 1e-6
        statuses.append(status)
    assert {OPTIMAL, INFEASIBLE} <= set(statuses)


def tracking_models(scenario, pairs):
    p = scenario.problem
    for y, x_ref in pairs:
        try:
            yield build_tracking_model(p, p.step(y, x_ref))[0]
        except ValueError:
            # a reference in an obstacle or outside X, or no safe box
            continue


def robot_pairs(scenario, rng, count):
    out = []
    while len(out) < count:
        y = rng.uniform(scenario.X.lo, scenario.X.hi)
        if scenario.unsafe.contains_interior(y):
            continue
        out.append((y, np.clip(y + rng.uniform(-0.5, 0.5, 2),
                               scenario.X.lo, scenario.X.hi)))
    return out


def test_robot_tracking_matches_highs():
    s, _ = load_scenario(os.path.join(ROOT, "scenarios", "robot_maze.yaml"))
    rng = np.random.default_rng(11)
    statuses = [assert_matches_highs(m).status
                for m in tracking_models(s, robot_pairs(s, rng, 30))]
    assert len(statuses) >= 20 and OPTIMAL in statuses


def committed_plan():
    with open(os.path.join(ROOT, "bench", "scenarios", "vehicle_plan.csv")) as f:
        return [np.array([float(v) for v in row[1:]])
                for row in list(csv.reader(f))[1:]]


def test_vehicle_tracking_matches_highs():
    s, _ = load_scenario(os.path.join(ROOT, "bench", "scenarios",
                                      "vehicle_corridor.yaml"))
    plan = committed_plan()
    rng = np.random.default_rng(5)
    pairs = [(np.clip(plan[i] + rng.uniform(-s.eps_y, s.eps_y), s.X.lo, s.X.hi),
              plan[min(i + 1, len(plan) - 1)])
             for i in range(0, len(plan), 2)]
    statuses = [assert_matches_highs(m).status for m in tracking_models(s, pairs)]
    assert len(statuses) >= 10 and OPTIMAL in statuses


def random_control_sets(scenario, rng, count):
    """Copies of the scenario with a random sub-box of U, 0.5-100% of its
    width per axis, and eps_u a share of that width: 0, a half, more than a
    half, all of it or more."""
    out = []
    for _ in range(count):
        width = (scenario.U.hi - scenario.U.lo) * rng.uniform(0.005, 1.0, 2)
        lo = scenario.U.lo + rng.uniform(0.0, 1.0, 2) * (
            scenario.U.hi - scenario.U.lo - width)
        share = rng.choice([0.0, 0.5, 0.8, 1.0, 1.4], 2)
        out.append(replace(scenario, U=Hypercube(lo, lo + width),
                           eps_u=share * width,
                           planner=replace(scenario.planner, u_margin=None)))
    return out


def test_tracking_with_random_control_sets_matches_highs():
    rng = np.random.default_rng(23)
    robot, _ = load_scenario(os.path.join(ROOT, "scenarios", "robot_maze.yaml"))
    vehicle, _ = load_scenario(os.path.join(ROOT, "bench", "scenarios",
                                            "vehicle_corridor.yaml"))
    plan = committed_plan()
    statuses = []
    for s in random_control_sets(robot, rng, 12):
        statuses += [assert_matches_highs(m).status
                     for m in tracking_models(s, robot_pairs(s, rng, 2))]
    for s in random_control_sets(vehicle, rng, 12):
        i = int(rng.integers(0, len(plan) - 1))
        statuses += [assert_matches_highs(m).status for m in tracking_models(
            s, [(plan[i], plan[i + 1])])]
    assert len(statuses) >= 25 and OPTIMAL in statuses


def test_step_with_one_reachable_face_matches_highs():
    # Robot maze, next to the wall [2, 3] x [-1, 6.5]: only its left face
    # is within reach, so three of the wall's four separation binaries are
    # fixed at 0.  Released to [0, 1], they leave HiGHS's optimum as it is.
    s, _ = load_scenario(os.path.join(ROOT, "scenarios", "robot_maze.yaml"))
    model, h = build_tracking_model(
        s.problem, s.problem.step([1.7, 1.0], [1.9, 1.5]))
    (d1, d2), = h["delta_u"]
    free = [v for v in (*d1, *d2) if model.lb[v] < model.ub[v]]
    assert free == [d1[0]]
    sol = assert_matches_highs(model)
    assert sol.status == OPTIMAL and sol.values[d1[0]] == 1.0
    released = replace(model, lb=np.where(model.is_binary, 0.0, model.lb),
                       ub=np.where(model.is_binary, 1.0, model.ub))
    assert abs(highs(released)[1] - sol.objective_value) <= 1e-9


def assert_warm_chain_matches_highs(models):
    """Solve the models in order, each root warm from the previous one's,
    and match every objective to HiGHS's within 1e-7."""
    basis, warm_roots = None, 0
    for model in models:
        sol = solve(model, warm=basis)
        status, obj = highs(model)
        assert sol.status == status
        if status == OPTIMAL:
            assert abs(sol.objective_value - obj) <= 1e-7
            assert model.constraint_violation(sol.values) <= 1e-6
        warm_roots += sol.stats["warm_root"]
        basis = sol.root_basis
    return warm_roots


def test_robot_episode_warm_chain_matches_highs():
    # A root starts warm exactly when its matrix is the previous model's;
    # it changes with the obstacles within reach.
    s, _ = load_scenario(os.path.join(ROOT, "scenarios", "robot_maze.yaml"))
    log = run_episode(replace(s, max_steps=20))
    assert len(log.steps) == 20
    models = list(tracking_models(s, [(r.y, r.x_ref) for r in log.steps]))
    assert len(models) == 20
    matrices = [_standard_form(m)[0] for m in models]
    same = sum(np.array_equal(a, b) for a, b in zip(matrices, matrices[1:]))
    assert same >= 15
    assert assert_warm_chain_matches_highs(models) == same


def test_vehicle_plan_warm_chain_matches_highs():
    s, _ = load_scenario(os.path.join(ROOT, "bench", "scenarios",
                                      "vehicle_corridor.yaml"))
    plan = committed_plan()
    rng = np.random.default_rng(9)
    pairs = [(np.clip(plan[i] + rng.uniform(-s.eps_y, s.eps_y), s.X.lo, s.X.hi),
              plan[i + 1]) for i in range(10)]
    models = list(tracking_models(s, pairs))
    assert len(models) == 10
    assert assert_warm_chain_matches_highs(models) >= 5


def test_tracking_solve_repeats_exactly():
    s, _ = load_scenario(os.path.join(ROOT, "scenarios", "robot_maze.yaml"))
    rng = np.random.default_rng(3)
    for model in tracking_models(s, robot_pairs(s, rng, 5)):
        a, b = solve(model), solve(model)
        assert a.status == b.status
        assert a.objective_value == b.objective_value
        assert (a.values is None and b.values is None) or np.array_equal(a.values, b.values)
        assert a.stats == b.stats
