"""Differential tests of milp.solve and milp.solve_lp against HiGHS.

scipy is a test-only dependency: the whole module is skipped without it.
Statuses must agree and optimal objectives match within
1e-6 * max(1, |obj|), the solver's own default relative gap.  The MILPs
(scipy.optimize.milp, 1e-12 relative gap) are random ones with 20-30
binaries (more than enumeration can check), and tracking MILPs of the
robot maze and of the vehicle corridor's committed net.  Two chains of
tracking MILPs (the first steps of the seed-0 robot episode, and points
along the committed corridor plan) are solved as the control loop solves
them, each root warm from the previous model's, and must match within
1e-7.  The LPs
(scipy.optimize.linprog, presolve off) are random ones with boxed,
lower-bounded, upper-bounded and free columns, so that they reach the
simplex's phase 1 and its Unbounded status.
"""

import csv
import os
from dataclasses import replace

import numpy as np
import pytest

scipy_optimize = pytest.importorskip("scipy.optimize")

from milp_safeguard.cli import load_scenario  # noqa: E402
from milp_safeguard.encoder import InfeasibleMeasurement, build_tracking_model  # noqa: E402
from milp_safeguard.milp import (  # noqa: E402
    EQ,
    GE,
    INF,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    ModelBuilder,
    solve,
    solve_lp,
)
from milp_safeguard.runtime import run_episode  # noqa: E402

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
    """(status, objective) of the model under HiGHS."""
    A, lo, hi = dense_rows(model)
    res = scipy_optimize.milp(
        model.objective, integrality=model.is_binary.astype(int),
        bounds=scipy_optimize.Bounds(model.lb, model.ub),
        constraints=scipy_optimize.LinearConstraint(A, lo, hi),
        options={"mip_rel_gap": 1e-12})
    status = {0: OPTIMAL, 2: INFEASIBLE}.get(res.status, f"highs:{res.status}")
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
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(
        res.status, f"highs:{res.status}")
    return status, (res.fun if res.status == 0 else None)


def random_lp(rng):
    """2-8 columns, each boxed, lower-bounded, upper-bounded or free, with
    costs of both signs.  Rows are satisfied by a random point within the
    column bounds, with slack, except for one in four whose right-hand side
    is random."""
    b = ModelBuilder()
    cols, point = [], []
    for _ in range(int(rng.integers(2, 9))):
        lo, hi = sorted(np.round(rng.uniform(-3.0, 3.0, 2), 1))
        kind = int(rng.choice(4, p=[0.5, 0.2, 0.2, 0.1]))
        cols.append(b.add_continuous(lo if kind in (0, 1) else -INF,
                                     hi if kind in (0, 2) else INF))
        point.append(rng.uniform(lo, hi))
    for _ in range(int(rng.integers(1, 7))):
        coef = {j: float(rng.integers(-3, 4)) for j in cols if rng.random() < 0.6}
        rel = (LE, GE, EQ)[int(rng.choice(3, p=[0.4, 0.4, 0.2]))]
        lhs = sum(v * point[j] for j, v in coef.items())
        sign = 1.0 if rel == LE else -1.0 if rel == GE else 0.0
        rhs = round(lhs + sign * float(rng.uniform(0.0, 2.0)), 2)
        if rng.random() < 0.25:
            rhs = float(rng.integers(-5, 6))
        b.add_constraint(coef, rel, rhs)
    b.set_objective({j: float(np.round(rng.uniform(-3.0, 3.0), 1)) for j in cols})
    return b.build()


def test_random_lps_match_highs():
    rng = np.random.default_rng(0)
    statuses = []
    for _ in range(200):
        model = random_lp(rng)
        r = solve_lp(model)
        status, obj = highs_lp(model)
        assert r.status == status
        if status == OPTIMAL:
            assert abs(r.objective_value - obj) <= 1e-6 * max(1.0, abs(obj))
            assert model.constraint_violation(r.x) <= 1e-6
        statuses.append(status)
    assert {OPTIMAL, INFEASIBLE, UNBOUNDED} <= set(statuses)


def tracking_models(scenario, pairs):
    for y, x_ref in pairs:
        try:
            yield build_tracking_model(scenario.tracking_problem(y, x_ref))[0]
        except (ValueError, InfeasibleMeasurement):
            continue   # reference in an obstacle or outside X


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
    s, _ = load_scenario(os.path.join(ROOT, "scenarios", "robot_maze.yaml"))
    log = run_episode(replace(s, max_steps=20))
    assert len(log.steps) == 20
    models = list(tracking_models(s, [(r.y, r.x_ref) for r in log.steps]))
    assert len(models) == 20
    assert assert_warm_chain_matches_highs(models) == 19


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
        assert {k: v for k, v in a.stats.items() if k != "wall_time"} == \
            {k: v for k, v in b.stats.items() if k != "wall_time"}
