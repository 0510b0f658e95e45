"""Differential tests of milp.solve against HiGHS (scipy.optimize.milp).

scipy is a test-only dependency: the whole module is skipped without it.
HiGHS runs with a 1e-12 relative gap; statuses must agree and optimal
objectives match within 1e-6 * max(1, |obj|), the solver's own default
relative gap.  The instances are random MILPs with 20-30 binaries (more
than enumeration can check), and tracking MILPs of the robot maze and of
the vehicle corridor's committed net.
"""

import csv
import os

import numpy as np
import pytest

scipy_optimize = pytest.importorskip("scipy.optimize")

from milp_safeguard.cli import load_scenario  # noqa: E402
from milp_safeguard.encoder import InfeasibleMeasurement, build_tracking_model  # noqa: E402
from milp_safeguard.milp import (  # noqa: E402
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    ModelBuilder,
    solve,
)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def highs(model):
    """(status, objective) of the model under HiGHS."""
    A = np.zeros((len(model.constraints), model.num_vars))
    lo = np.full(len(model.constraints), -np.inf)
    hi = np.full(len(model.constraints), np.inf)
    for r, c in enumerate(model.constraints):
        A[r, c.idx] = c.coef
        if c.rel != LE:
            lo[r] = c.rhs
        if c.rel != GE:
            hi[r] = c.rhs
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


def test_vehicle_tracking_matches_highs():
    s, _ = load_scenario(os.path.join(ROOT, "bench", "scenarios",
                                      "vehicle_corridor.yaml"))
    with open(os.path.join(ROOT, "bench", "scenarios", "vehicle_plan.csv")) as f:
        plan = [np.array([float(v) for v in row[1:]])
                for row in list(csv.reader(f))[1:]]
    rng = np.random.default_rng(5)
    pairs = [(np.clip(plan[i] + rng.uniform(-s.eps_y, s.eps_y), s.X.lo, s.X.hi),
              plan[min(i + 1, len(plan) - 1)])
             for i in range(0, len(plan), 2)]
    statuses = [assert_matches_highs(m).status for m in tracking_models(s, pairs)]
    assert len(statuses) >= 10 and OPTIMAL in statuses


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
