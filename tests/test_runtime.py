import os
from dataclasses import fields, replace

import numpy as np
import pytest

from milp_safeguard import milp
from milp_safeguard.cli import load_scenario
from milp_safeguard.learner import identity_warm_start
from milp_safeguard.nn_model import build_identity_sum_network
from milp_safeguard.plants import RobotPlant, VehiclePlant
from milp_safeguard.runtime import (
    GOAL_REACHED,
    INADMISSIBLE,
    INFEASIBLE,
    NUMERICAL_FAILURE,
    SOLVER_LIMIT,
    STEP_LIMIT,
    PlannerParams,
    Scenario,
    StepRecord,
    TrajectoryLog,
    plan_waypoints,
    run_episode,
)
from milp_safeguard.sets import Hypercube, UnsafeRegion

X = Hypercube(np.array([-1.0, -1.0]), np.array([10.0, 10.0]))
U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
EPS = np.array([0.05, 0.05])
NET = build_identity_sum_network(X, U)


def scenario(**kw):
    base = dict(plant=RobotPlant(eps_x=EPS), net=NET, X=X, U=U,
                unsafe=UnsafeRegion(()), eps_x=EPS, eps_y=EPS, eps_u=EPS,
                x0=np.array([0.0, 0.0]), xg=np.array([1.5, 1.5]), seed=0)
    base.update(kw)
    return Scenario(**base)


def test_scenario_requires_goal_or_reference():
    with pytest.raises(ValueError):
        scenario(xg=None)


def test_scenario_rejects_endpoints_in_obstacle():
    block = UnsafeRegion((Hypercube(np.array([1.2, 1.2]),
                                    np.array([2.0, 2.0])),))
    with pytest.raises(ValueError):
        scenario(unsafe=block)
    with pytest.raises(ValueError):
        scenario(x0=np.array([20.0, 0.0]))


def test_scenario_rejects_negative_noise_bound():
    with pytest.raises(ValueError):
        scenario(eps_u=np.array([-0.01, 0.01]))


def test_fixed_reference_skips_planning():
    s = scenario(xg=None, x_ref=np.array([0.4, 0.4]))
    wps = plan_waypoints(s)
    assert len(wps) == 1
    assert np.allclose(wps[0], [0.4, 0.4])


def test_free_space_episode_reaches_goal():
    s = scenario(max_steps=60)
    log = run_episode(s)
    assert log.status == GOAL_REACHED
    assert log.safety_violations(s.unsafe) == []
    # Every commanded control respects the control set.
    for rec in log.steps:
        assert s.U.contains(rec.u_cmd, tol=1e-9)
        assert s.U.contains(rec.u_act, tol=1e-9)


def test_episode_replay_is_deterministic():
    # Each step's root LP starts from the previous step's basis; the
    # episode starts cold, so a replay repeats every record bit for bit
    # (all but the timing).
    s = scenario(max_steps=60)
    l1 = run_episode(s)
    l2 = run_episode(s)
    assert l1.status == l2.status
    assert len(l1.steps) == len(l2.steps) > 1
    for a, b in zip(l1.steps, l2.steps):
        for f in fields(StepRecord):
            if f.name == "solve_ms":
                continue
            u, v = getattr(a, f.name), getattr(b, f.name)
            if isinstance(u, np.ndarray):
                assert u.tobytes() == v.tobytes(), f.name
            else:
                assert u == v, f.name


def test_episode_hands_each_root_basis_to_the_next_step(monkeypatch):
    inner, calls = milp.solve, []

    def traced(model, config=None, warm=None):
        sol = inner(model, config, warm=warm)
        calls.append((warm, sol))
        return sol
    monkeypatch.setattr(milp, "solve", traced)
    log = run_episode(scenario(max_steps=60))
    assert log.status == GOAL_REACHED and len(calls) == len(log.steps) > 1
    assert calls[0][0] is None
    for (_, prev), (warm, sol) in zip(calls, calls[1:]):
        assert warm is prev.root_basis
    # The free-space model's matrix never changes, so every later root
    # starts warm.
    assert all(sol.stats["warm_root"] for _, sol in calls[1:])


def test_obstacle_episode_stays_clear():
    wall = UnsafeRegion((Hypercube(np.array([0.6, -1.0]),
                                   np.array([0.9, 1.2])),))
    s = scenario(unsafe=wall, max_steps=120,
                 planner=PlannerParams(clearance=0.25))
    log = run_episode(s)
    assert log.status == GOAL_REACHED
    assert log.safety_violations(wall) == []
    for rec in log.steps:
        assert not wall.contains_interior(rec.x)


def test_sealed_reference_halts_infeasible():
    """Obstacle sealing the reachable set: halt, log intact, no control."""
    seal = Hypercube(np.array([-0.9, -0.9]), np.array([0.9, 0.9]))
    s = scenario(xg=None, x_ref=np.array([0.95, 0.95]),
                 unsafe=UnsafeRegion((seal,)), x0=np.array([-0.95, -0.95]),
                 max_steps=20)
    log = run_episode(s)
    assert log.status == INFEASIBLE
    assert len(log.steps) == 1
    rec = log.steps[0]
    assert rec.u_cmd is None and rec.box_lo is None
    assert rec.status != "Optimal"


def test_numerical_failure_halts_episode_logged(monkeypatch):
    """A singular basis is not infeasibility: the step and the episode
    say so."""
    s, _ = load_scenario(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "bench", "scenarios",
                                      "vehicle_corridor.yaml"))

    def inv(a):
        raise np.linalg.LinAlgError("Singular matrix")
    # The corridor's root LP runs past the first refactorization, so its
    # cold solve fails too.
    monkeypatch.setattr(milp.np.linalg, "inv", inv)
    log = run_episode(s, waypoints=[s.xg])
    assert log.status == NUMERICAL_FAILURE
    assert len(log.steps) == 1
    rec = log.steps[0]
    assert rec.status == "SolverNumericalFailure"
    assert rec.u_cmd is None and rec.box_lo is None


def test_solver_budget_halts_episode_logged():
    """A solve that runs out of simplex iterations is not infeasibility:
    the step and the episode say so, and the log keeps the step."""
    s = scenario(max_steps=60, solver=milp.SolverConfig(max_simplex_iters=5))
    log = run_episode(s)
    assert log.status == SOLVER_LIMIT
    assert len(log.steps) == 1
    rec = log.steps[0]
    assert rec.status == "SolveIterationLimit"
    assert rec.u_cmd is None and rec.box_lo is None


def test_step_limit_status():
    s = scenario(xg=None, x_ref=np.array([9.0, 9.0]), max_steps=3)
    log = run_episode(s)
    assert log.status == STEP_LIMIT
    assert len(log.steps) == 3


def test_waypoints_are_consumed_in_order():
    s = scenario(max_steps=60)
    wps = [np.array([0.4, 0.0]), np.array([0.8, 0.4]), np.array([1.0, 0.6])]
    log = run_episode(s, waypoints=wps)
    assert log.status == GOAL_REACHED
    refs = np.array([r.x_ref for r in log.steps])
    # References never move backwards through the waypoint list.
    order = {tuple(w): i for i, w in enumerate(map(tuple, wps))}
    idx = [order[tuple(r)] for r in refs]
    assert idx == sorted(idx)


def test_vehicle_heading_seam_guard():
    """A heading that turns onto the +/-pi seam ends the episode, logged."""
    X3 = Hypercube(np.array([-5.0, -5.0, -3.5]), np.array([5.0, 5.0, 3.5]))
    # Speed and steer both positive: the heading grows every step.
    U3 = Hypercube(np.array([1.0, 0.5]), np.array([2.0, 1.0]))
    plant = VehiclePlant(wheelbase=1.0, dt=0.1)
    s = Scenario(plant=plant,
                 net=identity_warm_start(X3, U3, (3,), scale=0.0),
                 X=X3, U=U3, unsafe=UnsafeRegion(()),
                 eps_x=np.array([0.25, 0.25, 0.2]),
                 eps_y=np.full(3, 0.01), eps_u=np.full(2, 0.01),
                 x0=np.array([0.0, 0.0, 2.9]), xg=None,
                 x_ref=np.array([4.0, 4.0, 0.0]), max_steps=20)
    log = run_episode(s)
    assert log.status == INADMISSIBLE
    assert 1 <= len(log.steps) < s.max_steps
    assert all(rec.status == "Optimal" for rec in log.steps)
    for a, b in zip(log.steps, log.steps[1:]):
        assert np.array_equal(a.x_next, b.x)
    assert all(plant.admissible(rec.x) for rec in log.steps)
    assert log.steps[-1].x_next[2] > np.pi - 0.1
    # An episode cannot start on the seam.
    with pytest.raises(ValueError):
        replace(s, x0=np.array([0.0, 0.0, 3.1]))


def test_safety_violation_audit_flags_bad_record():
    log = TrajectoryLog()
    log.steps.append(StepRecord(
        k=0, x=np.zeros(2), y=np.zeros(2), x_ref=np.zeros(2),
        u_cmd=np.zeros(2), u_act=np.zeros(2),
        box_lo=np.array([0.0, 0.0]), box_hi=np.array([0.1, 0.1]),
        cost=0.0, status="Optimal", solve_ms=1.0,
        x_next=np.array([0.5, 0.5])))
    bad = log.safety_violations(UnsafeRegion(()))
    assert bad == [(0, "containment")]
    inside = UnsafeRegion((Hypercube(np.array([-1.0, -1.0]),
                                     np.array([1.0, 1.0])),))
    kinds = {kind for _, kind in log.safety_violations(inside)}
    assert kinds == {"containment", "obstacle"}


def test_trajectory_csv_round_trip(tmp_path):
    s = scenario(max_steps=60)
    log = run_episode(s)
    path = tmp_path / "traj.csv"
    log.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(log.steps) + 1
    header = lines[0].split(",")
    assert header[0] == "k" and header[-1] == "solve_ms"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == log.steps[0].x[0]


def test_empty_log_csv_raises(tmp_path):
    with pytest.raises(ValueError):
        TrajectoryLog().to_csv(tmp_path / "empty.csv")
